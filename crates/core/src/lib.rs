//! Cluster orchestration: building, driving and faulting a full SwitchFS (or
//! baseline) deployment inside the simulation.
//!
//! This crate glues everything together:
//!
//! * [`systems::SystemKind`] — the five evaluated systems (§7.1): SwitchFS
//!   and the emulated baselines, each a partitioning policy, update mode and
//!   cost model over the same server runtime;
//! * [`config::ClusterConfig`] — how many servers/cores/clients, which
//!   system, which dirty-state tracking mode, tracing (network faults are
//!   set on the deployment's [`Network`](switchfs_simnet::Network));
//! * [`coordinator`] — the dedicated dirty-set coordinator server used by the
//!   §7.3.3 comparison: a `switchfs_server::ServerDirtySet` on 12 cores,
//!   answering the same `Request::DirtySet` request a directory's owner
//!   answers under owner tracking;
//! * [`cluster::Cluster`] — builds the nodes (the network runs the
//!   `switchfs-switch` program as the rack switch's), pre-populates
//!   namespaces and runs work on the simulation, with blocking wrappers over
//!   every fault;
//! * [`control::Control`] — the one implementation of each fault and
//!   membership change (crash, torn crash, recovery, switch reboot with
//!   re-aggregation, rebalance, decommission drain and tombstone; §5.4,
//!   §7.7); the cluster keeps one, and a clone moves into a simulated task
//!   such as the chaos nemesis;
//! * [`driver`] — closed-loop workload execution with per-operation latency
//!   histograms and throughput reports, the measurement engine behind every
//!   figure of §7.

pub mod cluster;
pub mod config;
pub mod control;
pub mod coordinator;
pub mod driver;
pub mod systems;

pub use cluster::Cluster;
pub use config::ClusterConfig;
pub use control::{Control, DecommissionReport};
pub use driver::{OpReport, WorkloadReport};
pub use switchfs_server::TrackingMode;
pub use systems::SystemKind;
