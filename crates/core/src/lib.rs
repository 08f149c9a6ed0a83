//! Cluster orchestration: building, driving and faulting a full SwitchFS (or
//! baseline) deployment inside the simulation.
//!
//! This crate glues everything together:
//!
//! * [`config::ClusterConfig`] — how many servers/cores/clients, which
//!   system ([`switchfs_baselines::SystemKind`]), which dirty-state tracking
//!   mode, fault injection;
//! * [`switch_adapter`] — plugs the `switchfs-switch` data plane into the
//!   simulated network fabric;
//! * [`coordinator`] — the dedicated dirty-set coordinator server used by the
//!   §7.3.3 comparison: a `switchfs_server::ServerDirtySet` on 12 cores,
//!   answering the same `ServerMsg::DirtySet` request a directory's owner
//!   answers under owner tracking;
//! * [`cluster::Cluster`] — builds the nodes, pre-populates namespaces,
//!   exposes crash / recovery / switch-reboot orchestration (§5.4, §7.7);
//! * [`driver`] — closed-loop workload execution with per-operation latency
//!   histograms and throughput reports, the measurement engine behind every
//!   figure of §7.

pub mod cluster;
pub mod config;
pub mod coordinator;
pub mod driver;
pub mod switch_adapter;

pub use cluster::{run_decommission, run_rebalance, Cluster, DecommissionReport};
pub use config::{ClusterConfig, TrackingChoice};
pub use driver::{OpReport, WorkloadReport};
pub use switchfs_baselines::SystemKind;
