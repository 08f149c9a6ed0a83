//! Server configuration: identity, placement, update protocol and
//! directory-state tracking modes.

use std::cell::RefCell;
use std::rc::Rc;

use switchfs_obs::ObsHandle;
use switchfs_proto::{Fingerprint, Placement, ServerId, SharedPlacement};
use switchfs_simnet::{NodeId, SimDuration};

use crate::costs::CostModel;

/// How directory updates of double-inode operations are performed; used by
/// the contribution breakdown of Fig. 14 and by the emulated baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Full SwitchFS: asynchronous updates with change-log compaction.
    AsyncCompacted,
    /// "+Async" in Fig. 14: asynchronous updates, but aggregation applies
    /// every change-log entry individually and serially.
    AsyncNoCompaction,
    /// Synchronous updates ("Baseline" in Fig. 14 and all emulated baseline
    /// systems): the parent directory is updated in place — locally when
    /// colocated, through a synchronous cross-server RPC otherwise — before
    /// the operation returns.
    Synchronous,
}

impl UpdateMode {
    /// True for the asynchronous (change-log based) modes.
    pub fn is_async(&self) -> bool {
        !matches!(self, UpdateMode::Synchronous)
    }
}

/// Where directory dirty state is tracked; used by the §7.3.3 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackingMode {
    /// In the programmable switch (the SwitchFS design).
    InNetwork,
    /// On a dedicated coordinator server reached by RPC at
    /// [`COORDINATOR_NODE`] (adds one RTT to every double-inode operation and
    /// directory read, Fig. 15).
    DedicatedServer,
    /// On each directory's owner server (doubles the packets per
    /// double-inode operation and adds queueing, Fig. 16).
    OwnerServer,
}

/// The network node of the dedicated dirty-set coordinator
/// ([`TrackingMode::DedicatedServer`]).
pub const COORDINATOR_NODE: NodeId = NodeId(900);

/// Proactive change-log pushing (§5.3; on in every experiment of the
/// paper, and always on here): a holder pushes a directory's change-log once
/// its marshalled entries would fill this many bytes — one MTU in the
/// paper, ≈29 entries.
pub const PUSH_MTU_BYTES: usize = 2048;
/// A holder pushes a change-log that no new entry was appended to for this
/// long.
pub const IDLE_PUSH_AFTER: SimDuration = SimDuration::micros(500);
/// An owner starts an aggregation if no push arrived for this long after
/// the last one: longer than the holders' idle push, so it finds their
/// remainders already delivered.
pub const OWNER_AGGREGATE_AFTER: SimDuration = SimDuration::micros(800);
const _: () = assert!(OWNER_AGGREGATE_AFTER.as_nanos() > IDLE_PUSH_AFTER.as_nanos());
/// How often the background task scans for push / aggregation work.
pub const PROACTIVE_SCAN_INTERVAL: SimDuration = SimDuration::micros(200);

/// Full configuration of one metadata server.
#[derive(Clone)]
pub struct ServerConfig {
    /// This server's identity.
    pub id: ServerId,
    /// This server's network node.
    pub node: NodeId,
    /// Number of cores (Fig. 2(d) / Fig. 14 vary this).
    pub cores: usize,
    /// Calibrated service times.
    pub costs: CostModel,
    /// Asynchronous update mode.
    pub update_mode: UpdateMode,
    /// Dirty-state tracking mode.
    pub tracking: TrackingMode,
    /// Epoch-versioned shard map shared by the whole cluster. Live shard
    /// migration flips entries in place; every server sees the new owner the
    /// moment a shard is flipped.
    pub placement: SharedPlacement,
    /// Network node of every metadata server, indexed by `ServerId.0`.
    /// Shared and growable: `Cluster::add_server` appends to it, so fan-out
    /// paths (aggregation, invalidation broadcast) include new members
    /// immediately.
    pub server_nodes: Rc<RefCell<Vec<NodeId>>>,
    /// Cluster-wide observability handle. Disabled by default; recording
    /// never touches protocol state, so the replay digest is identical
    /// either way.
    pub obs: ObsHandle,
}

impl ServerConfig {
    /// The network node hosting `server`.
    pub fn node_of(&self, server: ServerId) -> NodeId {
        self.server_nodes.borrow()[server.0 as usize]
    }

    /// The node keeping `fp`'s dirty state in software (§7.3.3), reached by
    /// `Request::DirtySet` unless it is this server: `None` when the
    /// switch keeps it. The only place a tracking mode is told apart.
    pub fn software_tracker(&self, fp: Fingerprint) -> Option<NodeId> {
        match self.tracking {
            TrackingMode::InNetwork => None,
            TrackingMode::DedicatedServer => Some(COORDINATOR_NODE),
            TrackingMode::OwnerServer => Some(self.node_of(self.placement.dir_owner_by_fp(fp))),
        }
    }

    /// Number of metadata servers in the cluster.
    pub fn num_servers(&self) -> usize {
        self.server_nodes.borrow().len()
    }

    /// All *active* server ids other than this one (the aggregation /
    /// invalidation fan-out set). Decommissioned servers are excluded: they
    /// hold no change-logs and answer nothing, so including them would stall
    /// every aggregation for a retry budget.
    pub fn other_servers(&self) -> Vec<ServerId> {
        (0..self.num_servers() as u32)
            .map(ServerId)
            .filter(|s| *s != self.id && !self.placement.map().is_retired(*s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::PartitionPolicy;

    fn cfg(n: usize) -> ServerConfig {
        ServerConfig {
            id: ServerId(1),
            node: NodeId(101),
            cores: 4,
            costs: CostModel::default(),
            update_mode: UpdateMode::AsyncCompacted,
            tracking: TrackingMode::InNetwork,
            placement: SharedPlacement::initial(PartitionPolicy::PerFileHash, n),
            server_nodes: Rc::new(RefCell::new(
                (0..n as u32).map(|i| NodeId(100 + i)).collect(),
            )),
            obs: switchfs_obs::Obs::disabled(),
        }
    }

    #[test]
    fn other_servers_excludes_self() {
        let c = cfg(4);
        assert_eq!(c.num_servers(), 4);
        let others = c.other_servers();
        assert_eq!(others.len(), 3);
        assert!(!others.contains(&ServerId(1)));
        assert_eq!(c.node_of(ServerId(2)), NodeId(102));
    }
}
