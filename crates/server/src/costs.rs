//! The calibrated cost model charged to the simulated clock.
//!
//! The SwitchFS paper's testbed (Tab. 4) uses Xeon Gold servers, Optane
//! persistent memory, 100 GbE NICs with DPDK, and RocksDB in asynchronous
//! write mode. We do not reproduce those components; instead every server
//! code path charges the service times below to its [`switchfs_simnet::CpuPool`],
//! calibrated against the latency breakdown of Fig. 2(b), the operation
//! latencies of Fig. 13 and the ~3 µs RTT of Fig. 15(a).
//!
//! Storage work is charged once, by the code that logs the record:
//! `Server::apply_and_log` charges one WAL append plus one put per effect,
//! and its callers charge only what they do before the log — lock
//! operations, reads and the software path. A synchronous parent update
//! therefore holds its fingerprint group's lock for
//! `lock_op + kv_get + wal_append + 2 × kv_put` (3.4 µs). Two callers log
//! with a charge of their own: an aggregation round's batch applier (one
//! append and one attribute put for the record, the entries' puts spread
//! over the cores) and the 2PC and migration markers (one append each).

use switchfs_simnet::SimDuration;

/// Per-operation CPU and storage service times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed software path per request handled (parsing, dispatch, RPC).
    pub software_path: SimDuration,
    /// One key-value store point lookup.
    pub kv_get: SimDuration,
    /// One key-value store put or delete.
    pub kv_put: SimDuration,
    /// One write-ahead-log append (asynchronous write mode).
    pub wal_append: SimDuration,
    /// Acquiring or releasing one lock.
    pub lock_op: SimDuration,
    /// Appending one change-log entry.
    pub changelog_append: SimDuration,
    /// Applying one change-log entry to a directory inode / entry list.
    pub entry_apply: SimDuration,
    /// Scanning one directory entry during `readdir`; once per listing per aggregation hold.
    pub readdir_per_entry: SimDuration,
    /// Additional fixed software overhead per operation; zero for SwitchFS
    /// and the emulated InfiniFS/CFS baselines, large for the CephFS-like
    /// and IndexFS-like stacks (Fig. 13).
    pub extra_software: SimDuration,
    /// Retransmission timeout (§5.4.1): the unit of every
    /// [`switchfs_proto::Retry`] policy a server sends under.
    pub request_timeout: SimDuration,
}

/// How long an aggregation responder holds its change-log locks waiting for
/// the owner's acknowledgment before it gives up and keeps its entries: 10 ×
/// SwitchFS's `request_timeout`, the same for every system. It only matters
/// in the asynchronous modes; a synchronous baseline keeps no change-log
/// entries to send.
pub(crate) const RESPONDER_ACK_WAIT: SimDuration = SimDuration::millis(3);

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            software_path: SimDuration::from_micros_f64(1.2),
            kv_get: SimDuration::from_micros_f64(0.8),
            kv_put: SimDuration::from_micros_f64(1.0),
            wal_append: SimDuration::from_micros_f64(0.5),
            lock_op: SimDuration::from_micros_f64(0.1),
            changelog_append: SimDuration::from_micros_f64(0.4),
            entry_apply: SimDuration::from_micros_f64(0.6),
            readdir_per_entry: SimDuration::from_micros_f64(0.05),
            extra_software: SimDuration::ZERO,
            request_timeout: SimDuration::micros(300),
        }
    }
}

impl CostModel {
    /// The cost model used for the CephFS-like baseline: a heavyweight
    /// software stack dominates every operation (Fig. 13 reports 587–1140 µs
    /// per metadata operation).
    pub fn cephfs_like() -> Self {
        CostModel {
            extra_software: SimDuration::micros(400),
            request_timeout: SimDuration::millis(5),
            ..Self::default()
        }
    }

    /// The cost model used for the IndexFS-like baseline (Fig. 13 reports
    /// 171–441 µs per operation).
    pub fn indexfs_like() -> Self {
        CostModel {
            extra_software: SimDuration::micros(120),
            request_timeout: SimDuration::millis(2),
            ..Self::default()
        }
    }

    /// Total fixed cost of handling one request before touching storage.
    pub fn request_overhead(&self) -> SimDuration {
        self.software_path + self.extra_software
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::Retry;

    #[test]
    fn defaults_are_single_digit_microseconds() {
        let c = CostModel::default();
        assert!(c.software_path.as_micros_f64() < 5.0);
        assert!(c.kv_put.as_micros_f64() < 5.0);
        assert_eq!(c.extra_software, SimDuration::ZERO);
        assert_eq!(c.request_overhead(), c.software_path);
    }

    #[test]
    fn baseline_stacks_are_much_heavier() {
        let ceph = CostModel::cephfs_like();
        let index = CostModel::indexfs_like();
        assert!(ceph.extra_software > index.extra_software);
        assert!(index.extra_software > CostModel::default().extra_software);
        assert!(ceph.request_overhead().as_micros() >= 400);
    }

    #[test]
    fn retry_budgets_at_the_switchfs_request_timeout() {
        // A prepared rename turns overdue after the DECISION budget.
        let budget = |r: Retry| CostModel::default().request_timeout * r.budget();
        assert_eq!(budget(Retry::ACK), SimDuration::micros(28_500));
        assert_eq!(budget(Retry::DECISION), SimDuration::micros(10_800));
        assert_eq!(budget(Retry::VOTE), SimDuration::micros(1_200));
        assert_eq!(budget(Retry::COLLECT), SimDuration::micros(16_200));
    }
}
