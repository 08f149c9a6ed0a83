//! The five evaluated systems (§7.1) and their configuration presets.
//!
//! The SwitchFS paper compares against CephFS, IndexFS, and *emulated*
//! versions of InfiniFS and CFS that share SwitchFS's storage and networking
//! framework. This module takes the same approach: every baseline reuses the
//! `switchfs-server` runtime in **synchronous update mode** and differs only
//! in its partitioning policy (which is also its request routing) and
//! per-operation software cost:
//!
//! | System | Partitioning | Double-inode ops | Extra software cost |
//! |---|---|---|---|
//! | Emulated-InfiniFS | P/C grouping (per-directory hashing) | `create`/`delete` local, `mkdir`/`rmdir` cross-server | none |
//! | Emulated-CFS | P/C separation (per-file hashing) | all cross-server, serialized at the parent's owner | none |
//! | CephFS-like | P/C grouping | as Emulated-InfiniFS | ~400 µs per op |
//! | IndexFS-like | P/C grouping | as Emulated-InfiniFS | ~120 µs per op |
//!
//! SwitchFS itself (asynchronous updates, in-network dirty set) is configured
//! through the same [`SystemKind`] enum so the evaluation harness can sweep
//! all five systems uniformly.

use switchfs_proto::PartitionPolicy;
use switchfs_server::{CostModel, UpdateMode};

/// One of the systems evaluated in §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// SwitchFS: asynchronous metadata updates coordinated by the
    /// programmable switch, per-file-hash partitioning, change-log
    /// compaction.
    SwitchFs,
    /// Emulated InfiniFS: synchronous updates with parent/children grouping.
    EmulatedInfiniFs,
    /// Emulated CFS: synchronous updates with parent/children separation.
    EmulatedCfs,
    /// CephFS-like: grouping placement plus a heavyweight software stack.
    CephFsLike,
    /// IndexFS-like: grouping placement plus a moderate software stack.
    IndexFsLike,
}

impl SystemKind {
    /// All five systems in the order the paper's figures list them.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::CephFsLike,
            SystemKind::IndexFsLike,
            SystemKind::EmulatedInfiniFs,
            SystemKind::EmulatedCfs,
            SystemKind::SwitchFs,
        ]
    }

    /// The label used in figures and tables.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::SwitchFs => "SwitchFS",
            SystemKind::EmulatedInfiniFs => "Emulated-InfiniFS",
            SystemKind::EmulatedCfs => "Emulated-CFS",
            SystemKind::CephFsLike => "CephFS",
            SystemKind::IndexFsLike => "IndexFS",
        }
    }

    /// Directory-update mode.
    pub fn update_mode(&self) -> UpdateMode {
        match self {
            SystemKind::SwitchFs => UpdateMode::AsyncCompacted,
            _ => UpdateMode::Synchronous,
        }
    }

    /// Partitioning policy.
    pub fn partition_policy(&self) -> PartitionPolicy {
        match self {
            SystemKind::SwitchFs | SystemKind::EmulatedCfs => PartitionPolicy::PerFileHash,
            SystemKind::EmulatedInfiniFs | SystemKind::CephFsLike | SystemKind::IndexFsLike => {
                PartitionPolicy::PerDirectoryHash
            }
        }
    }

    /// Calibrated cost model.
    pub fn cost_model(&self) -> CostModel {
        match self {
            SystemKind::CephFsLike => CostModel::cephfs_like(),
            SystemKind::IndexFsLike => CostModel::indexfs_like(),
            _ => CostModel::default(),
        }
    }

    /// True for the system that uses the in-network dirty set.
    pub fn uses_switch(&self) -> bool {
        matches!(self, SystemKind::SwitchFs)
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_switchfs_is_asynchronous() {
        for s in SystemKind::all() {
            assert_eq!(s.update_mode().is_async(), s == SystemKind::SwitchFs);
            assert_eq!(s.uses_switch(), s == SystemKind::SwitchFs);
        }
    }

    #[test]
    fn policies_match_the_paper_taxonomy() {
        assert_eq!(
            SystemKind::EmulatedCfs.partition_policy(),
            PartitionPolicy::PerFileHash
        );
        assert_eq!(
            SystemKind::EmulatedInfiniFs.partition_policy(),
            PartitionPolicy::PerDirectoryHash
        );
        assert_eq!(
            SystemKind::SwitchFs.partition_policy(),
            PartitionPolicy::PerFileHash
        );
    }

    #[test]
    fn cost_models_rank_cephfs_heaviest() {
        let ceph = SystemKind::CephFsLike.cost_model().request_overhead();
        let index = SystemKind::IndexFsLike.cost_model().request_overhead();
        let fast = SystemKind::SwitchFs.cost_model().request_overhead();
        assert!(ceph > index);
        assert!(index > fast);
        assert_eq!(
            fast,
            SystemKind::EmulatedCfs.cost_model().request_overhead()
        );
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            SystemKind::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 5);
        assert_eq!(format!("{}", SystemKind::SwitchFs), "SwitchFS");
    }
}
