//! Workload generators reproducing the SwitchFS evaluation workloads (§7).
//!
//! * [`ops`] — the operation/work-item vocabulary shared with the cluster
//!   driver.
//! * [`mixes`] — published operation mixes: the PanguFS trace ratios of
//!   Tab. 2, and the synthetic mix of Tab. 5.
//! * [`namespace`] — namespace specifications (how many directories, how
//!   many files per directory) and deterministic path naming.
//! * [`generators`] — the concrete workload builders: single-large-directory
//!   and multi-directory microbenchmarks (Fig. 12, Fig. 13), operation
//!   bursts (Fig. 17), aggregation-overhead sequences (Fig. 18), skewed
//!   mixed workloads and the real-world-trace replicas (Fig. 19).

pub mod generators;
pub mod mixes;
pub mod namespace;
pub mod ops;

pub use generators::WorkloadBuilder;
pub use mixes::OpMix;
pub use namespace::NamespaceSpec;
pub use ops::{OpKind, WorkItem};
