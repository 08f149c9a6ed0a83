//! Cross-crate integration tests: POSIX semantics of metadata operations on
//! every evaluated system.
//!
//! These tests exercise the full stack — LibFS path resolution and caching,
//! the simulated network and programmable switch, the metadata servers'
//! asynchronous-update protocol (or the baselines' synchronous protocol) —
//! and check the durable-visibility property of §A.2: an operation issued
//! after another returns must observe its effect.

use switchfs::core::{Cluster, ClusterConfig, SystemKind};
use switchfs::proto::FsError;

fn small_cluster(system: SystemKind) -> Cluster {
    let mut cfg = ClusterConfig::paper_default(system);
    cfg.servers = 4;
    cfg.clients = 2;
    Cluster::new(cfg)
}

fn basic_lifecycle(system: SystemKind) {
    let cluster = small_cluster(system);
    let client = cluster.client(0);
    cluster.block_on(async move {
        // mkdir + create + stat + statdir.
        client.mkdir("/proj").await.expect("mkdir /proj");
        client.mkdir("/proj/src").await.expect("mkdir /proj/src");
        client.create("/proj/src/main.rs").await.expect("create");
        client.create("/proj/src/lib.rs").await.expect("create");
        let f = client.stat("/proj/src/main.rs").await.expect("stat");
        assert!(!f.is_dir());
        // The directory read sees both asynchronous updates (durable
        // visibility: the creates returned before the statdir was issued).
        let d = client.statdir("/proj/src").await.expect("statdir");
        assert!(d.is_dir());
        assert_eq!(d.size, 2, "statdir must observe both creates");
        let (_, entries) = client.readdir("/proj/src").await.expect("readdir");
        let mut names: Vec<_> = entries.iter().map(|e| e.name.clone()).collect();
        names.sort();
        assert_eq!(names, vec!["lib.rs", "main.rs"]);
        // delete + statdir again.
        client.delete("/proj/src/lib.rs").await.expect("delete");
        let d = client.statdir("/proj/src").await.expect("statdir");
        assert_eq!(d.size, 1, "statdir must observe the delete");
        // Errors.
        assert_eq!(
            client.create("/proj/src/main.rs").await.unwrap_err(),
            FsError::AlreadyExists
        );
        assert_eq!(
            client.stat("/proj/src/nope.rs").await.unwrap_err(),
            FsError::NotFound
        );
        assert_eq!(
            client.rmdir("/proj/src").await.unwrap_err(),
            FsError::NotEmpty
        );
        client
            .delete("/proj/src/main.rs")
            .await
            .expect("delete main.rs");
        client
            .rmdir("/proj/src")
            .await
            .expect("rmdir now-empty dir");
        assert_eq!(
            client.statdir("/proj/src").await.unwrap_err(),
            FsError::NotFound,
            "a removed directory must not be readable"
        );
    });
}

#[test]
fn switchfs_basic_lifecycle() {
    basic_lifecycle(SystemKind::SwitchFs);
}

#[test]
fn emulated_cfs_basic_lifecycle() {
    basic_lifecycle(SystemKind::EmulatedCfs);
}

#[test]
fn emulated_infinifs_basic_lifecycle() {
    basic_lifecycle(SystemKind::EmulatedInfiniFs);
}

#[test]
fn cephfs_like_basic_lifecycle() {
    basic_lifecycle(SystemKind::CephFsLike);
}

#[test]
fn indexfs_like_basic_lifecycle() {
    basic_lifecycle(SystemKind::IndexFsLike);
}

#[test]
fn concurrent_creates_are_all_visible_to_a_later_readdir() {
    let cluster = small_cluster(SystemKind::SwitchFs);
    let clients: Vec<_> = (0..2).map(|i| cluster.client(i)).collect();
    let setup = cluster.client(0);
    cluster.block_on(async move {
        setup.mkdir("/shared").await.unwrap();
    });
    // Two clients create files concurrently in the same directory.
    let c0 = clients[0].clone();
    let c1 = clients[1].clone();
    cluster.block_on(async move {
        let paths0: Vec<String> = (0..20).map(|i| format!("/shared/a{i}")).collect();
        let paths1: Vec<String> = (0..20).map(|i| format!("/shared/b{i}")).collect();
        let mut in_flight = Vec::new();
        for p in &paths0 {
            in_flight.push(c0.create(p));
        }
        for p in &paths1 {
            in_flight.push(c1.create(p));
        }
        for f in in_flight {
            f.await.unwrap();
        }
    });
    let reader = cluster.client(1);
    cluster.block_on(async move {
        let (attrs, entries) = reader.readdir("/shared").await.unwrap();
        assert_eq!(entries.len(), 40, "all concurrent creates must be visible");
        assert_eq!(attrs.size, 40);
    });
}

#[test]
fn rename_moves_a_file_across_directories() {
    let cluster = small_cluster(SystemKind::SwitchFs);
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/a").await.unwrap();
        client.mkdir("/b").await.unwrap();
        client.create("/a/x").await.unwrap();
        client.rename("/a/x", "/b/y").await.unwrap();
        assert_eq!(client.stat("/a/x").await.unwrap_err(), FsError::NotFound);
        client.stat("/b/y").await.expect("renamed file must exist");
        let gone = client.rename("/a/x", "/b/z").await;
        assert_eq!(gone.unwrap_err(), FsError::NotFound);
    });
    // Seven operations, the two renames among them: rename runs its own
    // retry loop and must be counted like every other operation.
    let stats = cluster.client(0).stats();
    assert_eq!(
        (stats.ops_issued, stats.ops_ok, stats.ops_err),
        (7, 5, 2),
        "every call is one issued operation with one final outcome"
    );
}

#[test]
fn rename_moves_a_directory_with_its_children() {
    // Directory inodes live with their fingerprint group, not their per-file
    // hash, so directory rename exercises coordinator routing and content
    // migration (§5.2: rename is fully synchronous and covers up to four
    // inodes).
    for system in [
        SystemKind::SwitchFs,
        SystemKind::EmulatedCfs,
        SystemKind::EmulatedInfiniFs,
    ] {
        let cluster = small_cluster(system);
        let client = cluster.client(0);
        cluster.block_on(async move {
            client.mkdir("/a").await.unwrap();
            client.mkdir("/b").await.unwrap();
            client.mkdir("/a/sub").await.unwrap();
            client.create("/a/sub/x").await.unwrap();
            client.create("/a/sub/y").await.unwrap();
            client.rename("/a/sub", "/b/moved").await.unwrap();
            // Immediately visible on every replica: old path gone, new path
            // lists both children, parents' sizes updated.
            assert_eq!(
                client.statdir("/a/sub").await.unwrap_err(),
                FsError::NotFound,
                "{system}: old directory path must be gone"
            );
            let moved = client.statdir("/b/moved").await.unwrap();
            assert_eq!(moved.size, 2, "{system}: children must move along");
            let (_, entries) = client.readdir("/b/moved").await.unwrap();
            assert_eq!(entries.len(), 2, "{system}: entry list must migrate");
            client.stat("/b/moved/x").await.unwrap();
            assert_eq!(client.statdir("/a").await.unwrap().size, 0);
            assert_eq!(client.statdir("/b").await.unwrap().size, 1);
        });
    }
}

#[test]
fn stale_client_caches_are_invalidated_lazily_after_rmdir() {
    let cluster = small_cluster(SystemKind::SwitchFs);
    let creator = cluster.client(0);
    let other = cluster.client(1);
    cluster.block_on(async move {
        creator.mkdir("/tmpdir").await.unwrap();
        creator.create("/tmpdir/file").await.unwrap();
        // The second client resolves the directory (fills its cache).
        other.stat("/tmpdir/file").await.unwrap();
        // The first client empties and removes the directory.
        creator.delete("/tmpdir/file").await.unwrap();
        creator.rmdir("/tmpdir").await.unwrap();
        // The second client's cached entry for /tmpdir is now stale; the
        // invalidation-list check must make the operation fail with ENOENT
        // after the lazy invalidation retry, not succeed against stale state.
        let err = other.create("/tmpdir/new").await.unwrap_err();
        assert_eq!(err, FsError::NotFound);
    });
}

/// A client canonicalizes a path where it enters an operation, so a
/// non-canonical spelling hits the cache entries the canonical one filled,
/// and a stale retry on it drops them.
#[test]
fn a_non_canonical_path_shares_the_canonical_cache_entries() {
    let cluster = small_cluster(SystemKind::SwitchFs);
    let creator = cluster.client(0);
    let other = cluster.client(1);
    cluster.block_on(async move {
        creator.mkdir("/a").await.unwrap();
        creator.mkdir("/a/b").await.unwrap();
        creator.create("/a/b/f").await.unwrap();
        other.stat("/a/b/f").await.unwrap();
        let lookups = other.stats().lookups;
        other.stat("/a//b/f").await.unwrap();
        other.stat("a/b/f/").await.unwrap();
        assert_eq!(
            other.stats().lookups,
            lookups,
            "both spellings resolve from the entries /a/b/f cached"
        );
        // Replace /a/b: the other client's entry for it goes stale.
        creator.delete("/a/b/f").await.unwrap();
        creator.rmdir("/a/b").await.unwrap();
        creator.mkdir("/a/b").await.unwrap();
        creator.create("/a/b/f").await.unwrap();
        let (_, _, invalidations) = other.cache_counters();
        other.stat("/a//b/f").await.unwrap();
        let stats = other.stats();
        assert_eq!(stats.stale_retries, 1, "one retry after ESTALE");
        assert_eq!(
            other.cache_counters().2 - invalidations,
            2,
            "the retry drops the cached /a and /a/b"
        );
        assert_eq!(stats.lookups, lookups + 2, "and looks both up again");
        other.stat("/a/b/f").await.unwrap();
        assert_eq!(other.stats().lookups, lookups + 2);
    });
}

/// §7.3.2's run: 2,000 creates into one directory at 256 in flight, every
/// dirty-set insert overflowing. Each create is one synchronous parent
/// update at the directory's owner, however many copies of its commit queue
/// there behind the first, and one fallback at the server that ran it.
#[test]
fn dirty_set_overflow_falls_back_to_synchronous_updates() {
    use switchfs::workloads::{NamespaceSpec, OpKind, WorkloadBuilder};
    const CREATES: u64 = 2_000;
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 8;
    cfg.clients = 4;
    cfg.force_dirty_overflow = true;
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::single_large_dir(0);
    let dir = ns.dir_path(0);
    cluster.preload_dir(&dir);
    let items = WorkloadBuilder::new(ns, 5).uniform(OpKind::Create, CREATES as usize);
    let report = cluster.run_workload(items, 256, None);
    assert_eq!(report.errors, 0);
    let stats = cluster.total_server_stats();
    assert_eq!(
        (stats.remote_updates, stats.fallback_syncs),
        (CREATES, CREATES),
        "updates applied by the owner, fallbacks finished by the origins"
    );
    let client = cluster.client(0);
    let size = cluster.block_on(async move { client.statdir(&dir).await.unwrap().size });
    assert_eq!(size, CREATES);
}

#[test]
fn lossy_network_still_completes_operations() {
    use switchfs::simnet::{NetFaults, SimDuration};
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 1;
    // 2% loss, 2% duplication, light reordering jitter (§5.4.1).
    let cluster = Cluster::new(cfg);
    cluster
        .network()
        .set_faults(NetFaults::lossy(0.02, 0.02, SimDuration::micros(2)));
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/lossy").await.unwrap();
        for i in 0..50 {
            client.create(&format!("/lossy/f{i}")).await.unwrap();
        }
        let d = client.statdir("/lossy").await.unwrap();
        assert_eq!(
            d.size, 50,
            "loss/duplication must not lose or double-apply updates"
        );
    });
}
