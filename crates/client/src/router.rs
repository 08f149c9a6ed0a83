//! Request routing: which metadata server an operation is sent to, and
//! whether the packet carries a dirty-set query header.
//!
//! The rule is [`switchfs_proto::placement`]'s; what the client adds is the
//! map it applies the rule to — a private snapshot, refreshed from
//! `WrongOwner` rejections. The map's policy is the only client-side
//! difference between the systems.

use std::cell::RefCell;

use switchfs_proto::message::MetaOp;
use switchfs_proto::{InodeAttrs, Placement, ServerId, ShardMap};

/// Decides the destination server of a request.
#[derive(Debug)]
pub struct Router {
    /// The client's cached shard map.
    map: RefCell<ShardMap>,
    /// Whether directory reads carry a dirty-set query header (true for
    /// SwitchFS under in-network tracking; false when a dedicated coordinator
    /// or the owner server tracks dirty state, and for every baseline).
    dirty_query_in_packet: bool,
}

impl Router {
    /// Creates a router over an initial shard-map snapshot.
    pub fn new(map: ShardMap, dirty_query_in_packet: bool) -> Self {
        Router {
            map: RefCell::new(map),
            dirty_query_in_packet,
        }
    }

    /// The server the request must be sent to. `target` is what the client
    /// knows of the final path component (see [`Placement::route`]).
    pub fn destination(&self, op: &MetaOp, target: Option<&InodeAttrs>) -> ServerId {
        self.map.borrow().route(op, target)
    }

    /// True if the packet should carry a dirty-set `query` header for this
    /// operation.
    pub fn attach_dirty_query(&self, op: &MetaOp) -> bool {
        self.dirty_query_in_packet && op.is_dir_read()
    }

    /// True if the client must resolve the final path component (learn its
    /// id) before routing this operation.
    pub fn needs_target_resolution(&self, op: &MetaOp) -> bool {
        self.map.borrow().needs_target(op)
    }

    /// The epoch of the cached shard map, stamped on every request so a
    /// server with a newer map can reject the routing.
    pub fn epoch(&self) -> u64 {
        self.map.borrow().epoch()
    }

    /// Installs a newer shard map (carried by a `WrongOwner` rejection).
    /// Older or same-epoch maps are ignored.
    pub fn install_map(&self, map: &ShardMap) {
        let mut cached = self.map.borrow_mut();
        if map.epoch() > cached.epoch() {
            *cached = map.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{DirId, MetaKey, PartitionPolicy, Permissions};

    fn router(policy: PartitionPolicy, servers: usize, dirty_query: bool) -> Router {
        Router::new(ShardMap::initial(policy, servers), dirty_query)
    }

    fn create_op(name: &str) -> MetaOp {
        MetaOp::Create {
            key: MetaKey::new(DirId::ROOT, name),
            perm: Permissions::default(),
        }
    }

    fn statdir_op(name: &str) -> MetaOp {
        MetaOp::Statdir {
            key: MetaKey::new(DirId::ROOT, name),
        }
    }

    fn sibling_owners(r: &Router) -> std::collections::BTreeSet<ServerId> {
        (0..200)
            .map(|i| r.destination(&create_op(&format!("f{i}")), None))
            .collect()
    }

    #[test]
    fn switchfs_spreads_files_and_pins_fingerprint_groups() {
        let r = router(PartitionPolicy::PerFileHash, 8, true);
        assert!(sibling_owners(&r).len() > 1, "siblings must spread");
        let mkdir = MetaOp::Mkdir {
            key: MetaKey::new(DirId::ROOT, "dir"),
            perm: Permissions::default(),
        };
        assert_eq!(
            r.destination(&statdir_op("dir"), None),
            r.destination(&mkdir, None),
            "directory reads and mkdir of the same directory target its fingerprint owner"
        );
        assert!(r.attach_dirty_query(&statdir_op("dir")));
        assert!(!r.attach_dirty_query(&mkdir));
    }

    #[test]
    fn grouping_baseline_colocates_siblings() {
        let r = router(PartitionPolicy::PerDirectoryHash, 8, false);
        assert_eq!(sibling_owners(&r).len(), 1, "siblings must colocate");
        assert!(!r.attach_dirty_query(&statdir_op("d")));
    }

    #[test]
    fn separation_baseline_spreads_siblings() {
        let r = router(PartitionPolicy::PerFileHash, 8, false);
        assert!(sibling_owners(&r).len() > 1);
        assert!(!r.needs_target_resolution(&statdir_op("d")));
        assert!(!r.attach_dirty_query(&statdir_op("d")));
    }

    #[test]
    fn grouping_baseline_needs_target_resolution_for_dir_reads() {
        let r = router(PartitionPolicy::PerDirectoryHash, 4, false);
        assert!(r.needs_target_resolution(&statdir_op("d")));
        assert!(!r.needs_target_resolution(&create_op("f")));
    }
}
