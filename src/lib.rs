//! SwitchFS: asynchronous metadata updates for distributed filesystems with
//! in-network coordination — a full reproduction of the EuroSys '26 paper.
//!
//! This umbrella crate re-exports the public API of every component crate:
//!
//! * [`simnet`] — the deterministic virtual-time simulation substrate;
//! * [`kvstore`] — the ordered key-value store + WAL (RocksDB substitute);
//! * [`proto`] — identifiers, metadata schema, wire formats, messages;
//! * [`switch`] — the programmable-switch data plane and in-network dirty
//!   set;
//! * [`server`] — the SwitchFS metadata server (asynchronous updates,
//!   change-log compaction, aggregation, recovery);
//! * [`client`] — LibFS, the client library;
//! * [`core`] — the evaluated systems (SwitchFS and the emulated
//!   E-InfiniFS, E-CFS, CephFS-like and IndexFS-like baselines), cluster
//!   orchestration, the fault control handle and the workload driver;
//! * [`workloads`] — generators for every evaluation workload.
//!
//! # Quickstart
//!
//! ```
//! use switchfs::core::{Cluster, ClusterConfig, SystemKind};
//!
//! // A small SwitchFS deployment: 4 metadata servers, 2 clients.
//! let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
//! cfg.servers = 4;
//! cfg.clients = 2;
//! let cluster = Cluster::new(cfg);
//!
//! let client = cluster.client(0);
//! cluster.block_on(async move {
//!     client.mkdir("/data").await.unwrap();
//!     client.create("/data/model.bin").await.unwrap();
//!     let dir = client.statdir("/data").await.unwrap();
//!     assert_eq!(dir.size, 1);
//! });
//! ```

pub use switchfs_chaos as chaos;
pub use switchfs_client as client;
pub use switchfs_core as core;
pub use switchfs_kvstore as kvstore;
pub use switchfs_obs as obs;
pub use switchfs_proto as proto;
pub use switchfs_server as server;
pub use switchfs_simnet as simnet;
pub use switchfs_switch as switch;
pub use switchfs_workloads as workloads;

/// The crate version, matching the workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
