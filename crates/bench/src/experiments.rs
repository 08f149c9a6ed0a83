//! The experiments of §7, one function per table/figure.
//!
//! Each function returns a vector of [`Row`]s: a label plus named numeric
//! columns, which the `figures` binary prints as a table and can emit as
//! JSON. The workload sizes are scaled down from the paper's 10-million-file
//! populations by [`ExperimentScale`] so a full sweep runs in minutes of wall
//! clock; the *shape* of each result (who wins, where curves flatten, where
//! crossovers fall) is what the reproduction targets.

use switchfs_core::{Cluster, ClusterConfig, SystemKind, TrackingChoice};
use switchfs_simnet::SimDuration;
use switchfs_workloads::{NamespaceSpec, OpKind, OpMix, WorkloadBuilder};

/// How large to make each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Small populations / operation counts: suitable for CI and quick runs.
    Quick,
    /// Larger populations closer to the paper's setup (still simulated).
    Full,
}

impl ExperimentScale {
    /// Number of operations per measured data point.
    pub fn ops(&self) -> usize {
        match self {
            ExperimentScale::Quick => 2_000,
            ExperimentScale::Full => 20_000,
        }
    }

    /// Number of pre-existing files per namespace.
    pub fn preload_files(&self) -> usize {
        match self {
            ExperimentScale::Quick => 2_000,
            ExperimentScale::Full => 50_000,
        }
    }

    /// Number of directories in multi-directory namespaces.
    pub fn dirs(&self) -> usize {
        match self {
            ExperimentScale::Quick => 64,
            ExperimentScale::Full => 1024,
        }
    }
}

/// One output row: a label and named numeric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. the system name or a parameter value).
    pub label: String,
    /// `(column name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds a column.
    pub fn col(mut self, name: impl Into<String>, value: f64) -> Self {
        self.values.push((name.into(), value));
        self
    }
}

fn cluster_for(system: SystemKind, servers: usize, cores: usize) -> Cluster {
    let mut cfg = ClusterConfig::paper_default(system);
    cfg.servers = servers;
    cfg.cores_per_server = cores;
    cfg.clients = 4;
    Cluster::new(cfg)
}

fn preload_namespace(cluster: &mut Cluster, ns: &NamespaceSpec, files: usize) {
    for d in 0..ns.dirs {
        cluster.preload_dir(&ns.dir_path(d));
    }
    let per_dir = files / ns.dirs.max(1);
    for d in 0..ns.dirs {
        cluster.preload_files(&ns.dir_path(d), &ns.file_prefix, per_dir);
    }
}

fn op_throughput(
    system: SystemKind,
    servers: usize,
    cores: usize,
    ns: &NamespaceSpec,
    kind: OpKind,
    scale: ExperimentScale,
    in_flight: usize,
) -> (f64, f64) {
    let mut cluster = cluster_for(system, servers, cores);
    let mut ns = ns.clone();
    ns.files_per_dir = scale.preload_files() / ns.dirs.max(1);
    preload_namespace(&mut cluster, &ns, scale.preload_files());
    let mut builder = WorkloadBuilder::new(ns, 7);
    let items = match kind {
        OpKind::Rmdir => {
            let (mk, rm) = builder.mkdir_then_rmdir(scale.ops());
            // Create the directories first (unmeasured), then measure rmdir.
            cluster.run_workload(mk, in_flight, None);
            rm
        }
        _ => builder.uniform(kind, scale.ops()),
    };
    let report = cluster.run_workload(items, in_flight, None);
    (report.kops, report.mean_latency_us())
}

/// Tab. 2: the PanguFS operation mix and the asynchrony opportunity it
/// implies.
pub fn tab2() -> Vec<Row> {
    let mix = OpMix::pangu();
    vec![
        Row::new("dir-update fraction").col("percent", mix.dir_update_fraction() * 100.0),
        Row::new("dir-read fraction").col("percent", mix.dir_read_fraction() * 100.0),
        Row::new("updates not immediately read (lower bound)").col(
            "percent",
            (mix.dir_update_fraction() - mix.dir_read_fraction()) / mix.dir_update_fraction()
                * 100.0,
        ),
    ]
}

/// Fig. 2(a)+(c)+(d): the motivation study — `stat` and `create` scalability
/// of the two baselines in a single shared directory.
pub fn fig2(scale: ExperimentScale) -> Vec<Row> {
    let ns = NamespaceSpec::single_large_dir(0);
    let mut rows = Vec::new();
    for servers in [4usize, 8, 12, 16] {
        let mut row = Row::new(format!("{servers} servers"));
        for system in [SystemKind::EmulatedInfiniFs, SystemKind::EmulatedCfs] {
            let (stat_kops, _) = op_throughput(system, servers, 4, &ns, OpKind::Stat, scale, 256);
            let (create_kops, _) =
                op_throughput(system, servers, 4, &ns, OpKind::Create, scale, 256);
            row = row
                .col(format!("{} stat Kops/s", system.label()), stat_kops)
                .col(format!("{} create Kops/s", system.label()), create_kops);
        }
        rows.push(row);
    }
    for cores in [2usize, 4, 6] {
        let mut row = Row::new(format!("{cores} cores/server"));
        for system in [SystemKind::EmulatedInfiniFs, SystemKind::EmulatedCfs] {
            let (create_kops, _) = op_throughput(system, 8, cores, &ns, OpKind::Create, scale, 256);
            row = row.col(format!("{} create Kops/s", system.label()), create_kops);
        }
        rows.push(row);
    }
    rows
}

/// Fig. 12(a)/(b): throughput of each metadata operation, for every system,
/// while varying the number of metadata servers; `single_dir` selects the
/// single-large-directory or the multi-directory namespace.
pub fn fig12(scale: ExperimentScale, single_dir: bool, servers: usize) -> Vec<Row> {
    let ns = if single_dir {
        NamespaceSpec::single_large_dir(0)
    } else {
        NamespaceSpec::multi_dir(scale.dirs(), 0)
    };
    let ops = [
        OpKind::Create,
        OpKind::Delete,
        OpKind::Mkdir,
        OpKind::Rmdir,
        OpKind::Stat,
        OpKind::Statdir,
    ];
    let mut rows = Vec::new();
    for system in SystemKind::all() {
        let mut row = Row::new(system.label());
        for kind in ops {
            let (kops, _) = op_throughput(system, servers, 4, &ns, kind, scale, 256);
            row = row.col(format!("{} Kops/s", kind.name()), kops);
        }
        rows.push(row);
    }
    rows
}

/// Fig. 13: single-client operation latency on eight servers.
pub fn fig13(scale: ExperimentScale) -> Vec<Row> {
    let ns = NamespaceSpec::multi_dir(16, 0);
    let ops = [
        OpKind::Stat,
        OpKind::Statdir,
        OpKind::Create,
        OpKind::Mkdir,
        OpKind::Delete,
        OpKind::Rmdir,
    ];
    let mut rows = Vec::new();
    for system in SystemKind::all() {
        let mut row = Row::new(system.label());
        for kind in ops {
            let (_, mean_us) = op_throughput(system, 8, 4, &ns, kind, scale, 1);
            row = row.col(format!("{} us", kind.name()), mean_us);
        }
        rows.push(row);
    }
    rows
}

/// Fig. 14: contribution breakdown — Baseline (synchronous), +Async,
/// +Compaction — file creates in one shared directory, varying cores.
pub fn fig14(scale: ExperimentScale) -> Vec<Row> {
    use switchfs_server::UpdateMode;
    let ns = NamespaceSpec::single_large_dir(0);
    let variants: [(&str, SystemKind, Option<UpdateMode>); 3] = [
        ("Baseline", SystemKind::EmulatedCfs, None),
        (
            "+Async",
            SystemKind::SwitchFs,
            Some(UpdateMode::AsyncNoCompaction),
        ),
        (
            "+Compaction",
            SystemKind::SwitchFs,
            Some(UpdateMode::AsyncCompacted),
        ),
    ];
    let mut rows = Vec::new();
    for cores in [2usize, 4, 6] {
        let mut row = Row::new(format!("{cores} cores"));
        for (label, system, mode) in &variants {
            let mut cfg = ClusterConfig::paper_default(*system);
            cfg.servers = 8;
            cfg.cores_per_server = cores;
            cfg.clients = 4;
            cfg.update_mode_override = *mode;
            let mut cluster = Cluster::new(cfg);
            cluster.preload_dir(&ns.dir_path(0));
            let mut builder = WorkloadBuilder::new(ns.clone(), 3);
            let items = builder.uniform(OpKind::Create, scale.ops());
            let report = cluster.run_workload(items, 256, None);
            row = row
                .col(format!("{label} Kops/s"), report.kops)
                .col(format!("{label} mean us"), report.mean_latency_us());
        }
        rows.push(row);
    }
    rows
}

/// §7.3.2: impact of dirty-set overflow — create throughput/latency with
/// inserts forced to fail versus the normal path.
pub fn overflow(scale: ExperimentScale) -> Vec<Row> {
    let ns = NamespaceSpec::single_large_dir(0);
    let mut rows = Vec::new();
    for (label, force) in [("inserts succeed", false), ("inserts overflow", true)] {
        let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
        cfg.servers = 8;
        cfg.clients = 4;
        cfg.force_dirty_overflow = force;
        let mut cluster = Cluster::new(cfg);
        cluster.preload_dir(&ns.dir_path(0));
        let mut builder = WorkloadBuilder::new(ns.clone(), 5);
        let items = builder.uniform(OpKind::Create, scale.ops());
        let report = cluster.run_workload(items, 256, None);
        rows.push(
            Row::new(label)
                .col("create Kops/s", report.kops)
                .col("mean us", report.mean_latency_us()),
        );
    }
    rows
}

/// Fig. 15: tracking directory state on a dedicated server vs in the switch:
/// per-operation latency and `statdir` scalability.
pub fn fig15(scale: ExperimentScale) -> Vec<Row> {
    let ns = NamespaceSpec::multi_dir(scale.dirs(), 0);
    let mut rows = Vec::new();
    for (label, tracking) in [
        ("programmable switch", TrackingChoice::InNetwork),
        ("dedicated server", TrackingChoice::DedicatedServer),
    ] {
        for kind in [OpKind::Create, OpKind::Statdir] {
            let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
            cfg.servers = 8;
            cfg.clients = 1;
            cfg.tracking = tracking;
            let mut cluster = Cluster::new(cfg);
            let mut ns2 = ns.clone();
            ns2.files_per_dir = 8;
            preload_namespace(&mut cluster, &ns2, ns2.dirs * 8);
            let mut builder = WorkloadBuilder::new(ns2, 9);
            let items = builder.uniform(kind, scale.ops() / 4);
            let report = cluster.run_workload(items, 1, None);
            rows.push(
                Row::new(format!("{label} {}", kind.name()))
                    .col("mean us", report.mean_latency_us()),
            );
        }
        // Throughput of statdir with many in-flight requests.
        let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
        cfg.servers = 8;
        cfg.clients = 4;
        cfg.tracking = tracking;
        let mut cluster = Cluster::new(cfg);
        let mut ns2 = ns.clone();
        ns2.files_per_dir = 8;
        preload_namespace(&mut cluster, &ns2, ns2.dirs * 8);
        let mut builder = WorkloadBuilder::new(ns2, 9);
        let items = builder.uniform(OpKind::Statdir, scale.ops());
        let report = cluster.run_workload(items, 256, None);
        rows.push(Row::new(format!("{label} statdir throughput")).col("Kops/s", report.kops));
    }
    rows
}

/// Fig. 16: tracking directory state on the owner server — create latency
/// distribution under medium and heavy load.
pub fn fig16(scale: ExperimentScale) -> Vec<Row> {
    let ns = NamespaceSpec::multi_dir(scale.dirs(), 0);
    let mut rows = Vec::new();
    for (label, tracking) in [
        ("SwitchFS (in-network)", TrackingChoice::InNetwork),
        ("owner-server variant", TrackingChoice::OwnerServer),
    ] {
        for (load_label, in_flight) in [("medium load", 16usize), ("heavy load", 128)] {
            let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
            cfg.servers = 8;
            cfg.clients = 4;
            cfg.tracking = tracking;
            let mut cluster = Cluster::new(cfg);
            for d in 0..ns.dirs {
                cluster.preload_dir(&ns.dir_path(d));
            }
            let mut builder = WorkloadBuilder::new(ns.clone(), 13);
            let items = builder.uniform(OpKind::Create, scale.ops());
            let mut report = cluster.run_workload(items, in_flight, None);
            rows.push(
                Row::new(format!("{label}, {load_label}"))
                    .col("mean us", report.mean_latency_us())
                    .col("p90 us", report.latency.percentile(90.0).as_micros_f64())
                    .col("p99 us", report.latency.percentile(99.0).as_micros_f64()),
            );
        }
    }
    rows
}

/// Fig. 17: create throughput under operation bursts.
pub fn fig17(scale: ExperimentScale, in_flight: usize) -> Vec<Row> {
    let systems = [
        SystemKind::EmulatedInfiniFs,
        SystemKind::EmulatedCfs,
        SystemKind::SwitchFs,
    ];
    let mut rows = Vec::new();
    for burst in [10usize, 20, 50, 100, 1000] {
        let mut row = Row::new(format!("burst {burst}"));
        for system in systems {
            let mut cluster = cluster_for(system, 8, 4);
            let ns = NamespaceSpec::multi_dir(64, 0);
            for d in ns.all_dirs() {
                cluster.preload_dir(&d);
            }
            let mut builder = WorkloadBuilder::new(ns, 17);
            let items = builder.create_bursts(burst, scale.ops());
            let report = cluster.run_workload(items, in_flight, None);
            row = row.col(format!("{} Kops/s", system.label()), report.kops);
        }
        rows.push(row);
    }
    rows
}

/// Fig. 18: `statdir` latency after a run of preceding creates (aggregation
/// overhead), versus the number of creates and versus the server count.
pub fn fig18(scale: ExperimentScale) -> Vec<Row> {
    let mut rows = Vec::new();
    let creates_axis = [1usize, 10, 100, 1000, 10_000];
    for creates in creates_axis {
        if creates > scale.ops() * 5 {
            continue;
        }
        let mut cluster = cluster_for(SystemKind::SwitchFs, 8, 4);
        let ns = NamespaceSpec::single_large_dir(0);
        cluster.preload_dir(&ns.dir_path(0));
        let mut builder = WorkloadBuilder::new(ns, 19);
        let items = builder.creates_then_statdir(creates);
        let report = cluster.run_workload(items, 64, None);
        let statdir_us = report.op(OpKind::Statdir).map(|o| o.mean_us).unwrap_or(0.0);
        rows.push(Row::new(format!("{creates} preceding creates")).col("statdir us", statdir_us));
    }
    for servers in [4usize, 8, 12, 16] {
        let mut cluster = cluster_for(SystemKind::SwitchFs, servers, 4);
        let ns = NamespaceSpec::single_large_dir(0);
        cluster.preload_dir(&ns.dir_path(0));
        let mut builder = WorkloadBuilder::new(ns, 19);
        let items = builder.creates_then_statdir(100);
        let report = cluster.run_workload(items, 64, None);
        let statdir_us = report.op(OpKind::Statdir).map(|o| o.mean_us).unwrap_or(0.0);
        rows.push(
            Row::new(format!("{servers} servers, 100 creates")).col("statdir us", statdir_us),
        );
    }
    rows
}

/// Fig. 19 / Tab. 5: end-to-end throughput on the synthetic data-center,
/// CNN-training and thumbnail workloads.
pub fn fig19(scale: ExperimentScale) -> Vec<Row> {
    let mut rows = Vec::new();
    let data_latency = Some(SimDuration::micros(30));
    let workloads: [(&str, bool); 3] = [
        ("synthetic", false),
        ("cnn-training", true),
        ("thumbnail", true),
    ];
    for (wl, with_data) in workloads {
        let mut row = Row::new(wl);
        for system in [
            SystemKind::CephFsLike,
            SystemKind::EmulatedInfiniFs,
            SystemKind::EmulatedCfs,
            SystemKind::SwitchFs,
        ] {
            let mut cluster = cluster_for(system, 8, 4);
            let ns = NamespaceSpec::multi_dir(scale.dirs(), 0);
            let mut ns2 = ns.clone();
            ns2.files_per_dir = 8;
            preload_namespace(&mut cluster, &ns2, ns2.dirs * 8);
            let mut builder = WorkloadBuilder::new(ns2, 23).with_skew(0.8, 0.2);
            let items = match wl {
                "synthetic" => builder.mixed(&OpMix::datacenter_services(), scale.ops()),
                "cnn-training" => builder.cnn_training_trace(scale.ops() / 4, 1),
                _ => builder.thumbnail_trace(scale.ops() / 5),
            };
            let report =
                cluster.run_workload(items, 256, if with_data { data_latency } else { None });
            row = row.col(format!("{} Kops/s", system.label()), report.kops);
        }
        rows.push(row);
    }
    rows
}

/// §7.7-style availability figure: create throughput in three windows —
/// healthy, with one metadata server crashed (requests to it time out and
/// retry), and after its recovery — plus the recovery work itself. The dip
/// and the post-recovery restoration are the availability story the chaos
/// subsystem sweeps at scale.
pub fn availability(scale: ExperimentScale) -> Vec<Row> {
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 8;
    cfg.clients = 4;
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::multi_dir(64, 0);
    for d in ns.all_dirs() {
        cluster.preload_dir(&d);
    }
    // Preloads bypass the WAL; checkpoint so the crash below cannot erase
    // the namespace the workload runs against.
    cluster.checkpoint_all();
    let mut builder = WorkloadBuilder::new(ns, 31);
    let window_ops = scale.ops() / 2;

    let healthy = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);
    cluster.crash_server(0);
    let degraded = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);
    let report = cluster.recover_server(0);
    let recovered = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);

    vec![
        Row::new("healthy")
            .col("create Kops/s", healthy.kops)
            .col("errors", healthy.errors as f64),
        Row::new("one server down")
            .col("create Kops/s", degraded.kops)
            .col("errors", degraded.errors as f64),
        Row::new("after recovery")
            .col("create Kops/s", recovered.kops)
            .col("errors", recovered.errors as f64),
        Row::new("recovery work")
            .col("WAL records replayed", report.wal_records_replayed as f64)
            .col("WAL KB replayed", report.wal_bytes_replayed as f64 / 1024.0)
            .col("inodes recovered", report.inodes_recovered as f64)
            .col("virtual ms", report.duration_ns as f64 / 1e6),
    ]
}

/// Elastic scale-out: throughput while a loaded cluster absorbs a new
/// server through live shard migration (epoch-versioned placement). The
/// shards-moved column demonstrates bounded movement: only ~1/(N+1) of the
/// virtual shards migrate, where the old modulo placement would have
/// reshuffled nearly every key.
pub fn rebalance(scale: ExperimentScale) -> Vec<Row> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 8;
    cfg.clients = 4;
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::multi_dir(64, 0);
    for d in ns.all_dirs() {
        cluster.preload_dir(&d);
    }
    cluster.checkpoint_all();
    let mut builder = WorkloadBuilder::new(ns, 37);
    let window_ops = scale.ops() / 2;

    let healthy = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);

    // Provision the ninth server and rebalance onto it *while* the next
    // workload window runs: the migration and the load interleave inside
    // one simulation run.
    let before_shards = cluster.placement().map().num_shards();
    cluster.add_server();
    let moved: Rc<RefCell<Option<usize>>> = Rc::new(RefCell::new(None));
    {
        let placement = cluster.placement();
        let servers = cluster.servers().to_vec();
        let moved = moved.clone();
        cluster.sim.spawn(async move {
            let n = switchfs_core::run_rebalance(&placement, &servers).await;
            *moved.borrow_mut() = Some(n);
        });
    }
    let degraded = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);
    // Let a migration that outlived the window finish before measuring the
    // settled cluster.
    while moved.borrow().is_none() {
        cluster.settle(SimDuration::millis(5));
    }
    let shards_moved = moved.borrow().expect("rebalance completed");
    let absorbed = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);

    vec![
        Row::new("healthy (8 servers)")
            .col("create Kops/s", healthy.kops)
            .col("errors", healthy.errors as f64),
        Row::new("during rebalance (+1 server)")
            .col("create Kops/s", degraded.kops)
            .col("errors", degraded.errors as f64),
        Row::new("after rebalance (9 servers)")
            .col("create Kops/s", absorbed.kops)
            .col("errors", absorbed.errors as f64),
        Row::new("shard movement")
            .col("shards moved", shards_moved as f64)
            .col("total shards", before_shards as f64)
            .col("moved fraction", shards_moved as f64 / before_shards as f64)
            .col("map epoch", cluster.placement().map().epoch() as f64),
    ]
}

/// Elastic shrink: throughput while a loaded cluster gracefully
/// decommissions one of its servers — every shard the victim owns drains to
/// the survivors in one bucketing scan, its change-logs flush, the map
/// retires the id, and the victim becomes a WrongOwner redirect tombstone.
/// The errors columns demonstrate that clients ride the shrink without a
/// single failed operation (freeze-window drops are absorbed by
/// retransmission; stale maps refresh via WrongOwner).
pub fn decommission(scale: ExperimentScale) -> Vec<Row> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 8;
    cfg.clients = 4;
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::multi_dir(64, 0);
    for d in ns.all_dirs() {
        cluster.preload_dir(&d);
    }
    cluster.checkpoint_all();
    let mut builder = WorkloadBuilder::new(ns, 41);
    let window_ops = scale.ops() / 2;

    let healthy = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);

    // Decommission server 0 *while* the next workload window runs: the
    // drain and the load interleave inside one simulation run.
    let victim = 0usize;
    let victim_id = switchfs_proto::ServerId(victim as u32);
    let total_shards = cluster.placement().map().num_shards();
    let owned_before = cluster.placement().map().shards_owned(victim_id);
    let outcome: Rc<RefCell<Option<switchfs_core::DecommissionReport>>> =
        Rc::new(RefCell::new(None));
    {
        let placement = cluster.placement();
        let servers = cluster.servers().to_vec();
        let outcome = outcome.clone();
        cluster.sim.spawn(async move {
            let report = switchfs_core::run_decommission(&placement, &servers, victim).await;
            *outcome.borrow_mut() = Some(report);
        });
    }
    let during = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);
    // Let a drain that outlived the window finish before measuring the
    // settled (smaller) cluster.
    while outcome.borrow().is_none() {
        cluster.settle(SimDuration::millis(5));
    }
    let report = outcome.borrow().expect("decommission completed");
    if report.completed {
        cluster.finalize_decommission(victim);
    }
    let after = cluster.run_workload(builder.uniform(OpKind::Create, window_ops), 256, None);

    vec![
        Row::new("healthy (8 servers)")
            .col("create Kops/s", healthy.kops)
            .col("errors", healthy.errors as f64),
        Row::new("during decommission (-1 server)")
            .col("create Kops/s", during.kops)
            .col("errors", during.errors as f64),
        Row::new("after decommission (7 servers)")
            .col("create Kops/s", after.kops)
            .col("errors", after.errors as f64),
        Row::new("drain")
            .col("shards drained", report.shards_moved as f64)
            .col("victim shards before", owned_before as f64)
            .col("total shards", total_shards as f64)
            .col("completed", f64::from(u8::from(report.completed)))
            .col("map epoch", cluster.placement().map().epoch() as f64),
    ]
}

/// §7.7: crash-recovery time after a server failure and a switch failure.
pub fn recovery(scale: ExperimentScale) -> Vec<Row> {
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 8;
    cfg.clients = 4;
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::multi_dir(64, 0);
    for d in ns.all_dirs() {
        cluster.preload_dir(&d);
    }
    let mut builder = WorkloadBuilder::new(ns, 29);
    let items = builder.uniform(OpKind::Create, scale.ops());
    cluster.run_workload(items, 256, None);

    cluster.crash_server(0);
    let report = cluster.recover_server(0);
    let switch_time = cluster.crash_and_recover_switch();
    vec![
        Row::new("server recovery")
            .col("WAL records replayed", report.wal_records_replayed as f64)
            .col("inodes recovered", report.inodes_recovered as f64)
            .col(
                "change-log entries recovered",
                report.changelog_entries_recovered as f64,
            )
            .col("virtual seconds", report.duration_ns as f64 / 1e9),
        Row::new("switch recovery").col("virtual seconds", switch_time.as_secs_f64()),
    ]
}

/// Unified metrics registry: one named row per registered metric, from a
/// small SwitchFS run with the flight recorder *enabled* — so this
/// experiment doubles as the CI proof that a tracing-enabled run completes.
/// Values are workload-dependent; the test below checks presence of the core
/// names and basic sanity (ops issued, WAL flushed ≤ appended), not exact
/// values.
pub fn metrics(scale: ExperimentScale) -> Vec<Row> {
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 2;
    cfg.trace_capacity = Some(switchfs_obs::DEFAULT_RING_CAPACITY);
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::multi_dir(16, 0);
    for d in ns.all_dirs() {
        cluster.preload_dir(&d);
    }
    let mut builder = WorkloadBuilder::new(ns, 41);
    let items = builder.uniform(OpKind::Create, scale.ops() / 4);
    cluster.run_workload(items, 64, None);
    cluster
        .metrics_snapshot()
        .snapshot()
        .into_iter()
        .map(|(name, value)| Row::new(name).col("value", value.scalar()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab2_reports_the_pigeonhole_bound() {
        let rows = tab2();
        assert_eq!(rows.len(), 3);
        let bound = rows[2].values[0].1;
        assert!(bound > 85.0, "lower bound {bound} should exceed 85%");
    }

    #[test]
    fn row_builder_collects_columns() {
        let r = Row::new("x").col("a", 1.0).col("b", 2.0);
        assert_eq!(r.values.len(), 2);
        assert_eq!(r.values[1].0, "b");
    }

    #[test]
    fn overflow_penalty_is_visible_even_at_tiny_scale() {
        let rows = overflow(ExperimentScale::Quick);
        let normal = rows[0].values[0].1;
        let overflowed = rows[1].values[0].1;
        assert!(
            overflowed < normal,
            "forced overflow ({overflowed} Kops/s) must not beat the normal path ({normal} Kops/s)"
        );
    }

    /// Fig. 18's shape as a predicate: `statdir` latency is linear in the
    /// creates pending before it, at the slope of a round that applies its
    /// entries on every core — one apply and one put per entry, a quarter
    /// of them per core on these 4-core servers — plus what does not grow
    /// with the entries (collection, the record, the read itself).
    #[test]
    fn statdir_after_creates_is_linear_at_the_all_cores_slope() {
        let rows = fig18(ExperimentScale::Quick);
        let statdir_us = |creates: usize| {
            let label = format!("{creates} preceding creates");
            let row = rows.iter().find(|r| r.label == label);
            row.unwrap_or_else(|| panic!("Fig. 18 row {label:?} missing"))
                .values[0]
                .1
        };
        let costs = ClusterConfig::paper_default(SystemKind::SwitchFs).cost_model();
        let per_entry_us = (costs.entry_apply + costs.kv_put).as_micros_f64() / 4.0;
        let (most, limit) = (statdir_us(10_000), 10_000.0 * per_entry_us + 250.0);
        assert!(
            most <= limit,
            "statdir after 10,000 creates took {most} us, limit {limit} us"
        );
        for (few, many) in [(100, 1_000), (1_000, 10_000)] {
            let (few_us, many_us) = (statdir_us(few), statdir_us(many));
            assert!(
                many_us <= 10.0 * few_us,
                "{few} -> {many} creates: {few_us} -> {many_us} us grows faster than the creates"
            );
        }
    }

    /// Live shard migration and graceful shrink must be invisible to
    /// clients *under a 256-deep load* (freeze-window drops are absorbed by
    /// retransmission, stale maps refresh via WrongOwner);
    /// `tests/fault_tolerance.rs` migrates an idle cluster.
    #[test]
    fn elastic_membership_under_load_fails_no_operation() {
        for (name, rows) in [
            ("rebalance", rebalance(ExperimentScale::Quick)),
            ("decommission", decommission(ExperimentScale::Quick)),
        ] {
            let mut checked = 0;
            for row in &rows {
                for (col, v) in row.values.iter().filter(|(col, _)| col == "errors") {
                    assert_eq!(*v, 0.0, "{name} / {}: {col} must be 0", row.label);
                    checked += 1;
                }
            }
            assert_eq!(checked, 3, "{name}: healthy, during and after windows");
        }
    }

    /// Named rows the unified metrics registry must always expose.
    const REQUIRED_METRICS: [&str; 13] = [
        "client.ops_issued",
        "client.ops_ok",
        "kv.gets",
        "kv.puts",
        "net.delivered",
        "net.sent",
        "obs.events_evicted",
        "obs.events_recorded",
        "server.ops_completed",
        "switch.packets",
        "wal.appends",
        "wal.bytes_appended",
        "wal.bytes_flushed",
    ];

    #[test]
    fn tracing_enabled_run_exposes_the_core_registry_rows() {
        let rows = metrics(ExperimentScale::Quick);
        let value = |name: &str| {
            let row = rows.iter().find(|r| r.label == name);
            row.unwrap_or_else(|| panic!("metrics registry row {name} missing"))
                .values[0]
                .1
        };
        for name in REQUIRED_METRICS {
            value(name);
        }
        assert!(value("client.ops_issued") > 0.0, "the run issued no ops");
        assert!(
            value("obs.events_recorded") > 0.0,
            "flight recorder was enabled but recorded nothing"
        );
        assert!(
            value("wal.bytes_flushed") <= value("wal.bytes_appended"),
            "flush watermark overran the append counter"
        );
    }
}
