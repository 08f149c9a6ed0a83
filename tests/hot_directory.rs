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

use std::collections::BTreeSet;

use switchfs::core::{Cluster, ClusterConfig, SystemKind};
use switchfs::proto::{DirId, Fingerprint, Placement};
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
