//! Request routing: which metadata server an operation is sent to, and
//! whether the packet carries a dirty-set query header.
//!
//! SwitchFS routes by per-file hashing (files) and fingerprint (directories);
//! the baselines route according to their partitioning policy (§2.1). The
//! router is the only client-side difference between the systems.

use std::cell::RefCell;

use switchfs_proto::message::{MetaOp, ParentRef};
use switchfs_proto::{
    DirId, Fingerprint, InodeAttrs, PartitionPolicy, Placement, ServerId, ShardMap,
};

/// Decides the destination server of a request.
pub trait RequestRouter {
    /// The server the request must be sent to.
    ///
    /// `parent` is the resolved parent directory (if any) and `target` the
    /// resolved attributes of the final path component when the router asked
    /// for target resolution.
    fn destination(
        &self,
        op: &MetaOp,
        parent: Option<&ParentRef>,
        target: Option<&InodeAttrs>,
    ) -> ServerId;

    /// True if the packet should carry a dirty-set `query` header for this
    /// operation (only SwitchFS directory reads under in-network tracking).
    fn attach_dirty_query(&self, op: &MetaOp) -> bool;

    /// True if the client must resolve the final path component (learn its
    /// id) before routing this operation.
    fn needs_target_resolution(&self, op: &MetaOp) -> bool;

    /// Number of metadata servers.
    fn num_servers(&self) -> usize;

    /// The epoch of the cached shard map, stamped on every request so a
    /// server with a newer map can reject the routing.
    fn epoch(&self) -> u64;

    /// Installs a newer shard map (carried by a `WrongOwner` rejection).
    /// Older or same-epoch maps are ignored.
    fn install_map(&self, map: &ShardMap);
}

/// A client's cached shard map with the epoch-guarded refresh shared by
/// every router: only strictly newer maps (carried by `WrongOwner`
/// rejections) replace the cache.
#[derive(Debug)]
struct CachedMap(RefCell<ShardMap>);

impl CachedMap {
    fn new(map: ShardMap) -> Self {
        CachedMap(RefCell::new(map))
    }

    fn borrow(&self) -> std::cell::Ref<'_, ShardMap> {
        self.0.borrow()
    }

    fn epoch(&self) -> u64 {
        self.0.borrow().epoch()
    }

    fn num_servers(&self) -> usize {
        self.0.borrow().num_servers()
    }

    fn install(&self, map: &ShardMap) {
        let mut cached = self.0.borrow_mut();
        if map.epoch() > cached.epoch() {
            *cached = map.clone();
        }
    }
}

/// Router for SwitchFS clusters.
#[derive(Debug)]
pub struct SwitchFsRouter {
    /// The client's cached shard map; refreshed from `WrongOwner`
    /// rejections after a live migration moved a shard.
    placement: CachedMap,
    /// Whether directory reads should carry a dirty-set query header (true
    /// for in-network tracking; false when a dedicated coordinator or the
    /// owner server tracks dirty state).
    pub dirty_query_in_packet: bool,
}

impl SwitchFsRouter {
    /// Creates a router over an initial shard-map snapshot.
    pub fn new(map: ShardMap, dirty_query_in_packet: bool) -> Self {
        SwitchFsRouter {
            placement: CachedMap::new(map),
            dirty_query_in_packet,
        }
    }

    /// Convenience: a router over the epoch-0 map of `servers` servers.
    pub fn with_servers(servers: usize, dirty_query_in_packet: bool) -> Self {
        Self::new(
            ShardMap::initial(PartitionPolicy::PerFileHash, servers),
            dirty_query_in_packet,
        )
    }
}

impl RequestRouter for SwitchFsRouter {
    fn destination(
        &self,
        op: &MetaOp,
        _parent: Option<&ParentRef>,
        target: Option<&InodeAttrs>,
    ) -> ServerId {
        let placement = self.placement.borrow();
        let key = op.primary_key();
        match op {
            // Directory-target operations go to the fingerprint group owner.
            MetaOp::Mkdir { .. }
            | MetaOp::Rmdir { .. }
            | MetaOp::Statdir { .. }
            | MetaOp::Readdir { .. }
            | MetaOp::Lookup { .. } => {
                let fp = Fingerprint::of_dir(&key.pid, &key.name);
                placement.dir_owner_by_fp(fp)
            }
            // Rename is coordinated by the source inode's owner: the
            // fingerprint-group owner when the source is a directory
            // (directory inodes live with their fingerprint group, like
            // `mkdir` placed them), the per-file-hash owner otherwise. The
            // source's type comes from the client cache when present; on a
            // cold cache the request defaults to the per-file-hash owner,
            // which re-routes a directory rename to the group owner
            // server-side — the client never probes.
            MetaOp::Rename { src, .. } if target.is_some_and(InodeAttrs::is_dir) => {
                let fp = Fingerprint::of_dir(&src.pid, &src.name);
                placement.dir_owner_by_fp(fp)
            }
            // Everything else is addressed by the file's own key.
            _ => placement.file_owner(key),
        }
    }

    fn attach_dirty_query(&self, op: &MetaOp) -> bool {
        self.dirty_query_in_packet && op.is_dir_read()
    }

    fn needs_target_resolution(&self, _op: &MetaOp) -> bool {
        // Not even for rename: a cold-cache rename routes to the per-file
        // hash owner and is re-routed server-side when the source turns out
        // to be a directory.
        false
    }

    fn num_servers(&self) -> usize {
        self.placement.num_servers()
    }

    fn epoch(&self) -> u64 {
        self.placement.epoch()
    }

    fn install_map(&self, map: &ShardMap) {
        self.placement.install(map);
    }
}

/// Router for the emulated baseline systems.
///
/// * `PerDirectoryHash` (E-InfiniFS, and the CephFS-/IndexFS-like systems):
///   a directory's children and its *content inode* live on the server
///   selected by hashing the directory's id, so sibling operations hit one
///   server (metadata locality, but hotspots under skew).
/// * `PerFileHash` (E-CFS): file inodes are spread by their own key; the
///   parent's content inode lives on the server selected by hashing the
///   parent's key, so double-inode operations need a cross-server update.
#[derive(Debug)]
pub struct BaselineRouter {
    placement: CachedMap,
}

impl BaselineRouter {
    /// Creates a router over an initial shard-map snapshot.
    pub fn new(map: ShardMap) -> Self {
        BaselineRouter {
            placement: CachedMap::new(map),
        }
    }

    /// Convenience: a router over the epoch-0 map of `servers` servers.
    pub fn with_servers(policy: PartitionPolicy, servers: usize) -> Self {
        Self::new(ShardMap::initial(policy, servers))
    }

    /// A snapshot of the cached placement (shared with the baseline
    /// servers).
    pub fn placement(&self) -> ShardMap {
        self.placement.borrow().clone()
    }

    /// Owner of a directory's content inode.
    pub fn dir_content_owner(&self, dir_id: &DirId, dir_key: &switchfs_proto::MetaKey) -> ServerId {
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        self.placement.borrow().dir_content_owner(fp, dir_id)
    }
}

impl RequestRouter for BaselineRouter {
    fn destination(
        &self,
        op: &MetaOp,
        parent: Option<&ParentRef>,
        target: Option<&InodeAttrs>,
    ) -> ServerId {
        let key = op.primary_key();
        match op {
            MetaOp::Statdir { .. } | MetaOp::Readdir { .. } | MetaOp::Rmdir { .. } => {
                // Directory-target operations are served by the directory's
                // content owner; under P/C grouping that requires the
                // directory's id (resolved by the client).
                let dir_id = target.map(|a| a.id).unwrap_or(key.pid);
                self.dir_content_owner(&dir_id, key)
            }
            MetaOp::Lookup { .. } => {
                // Lookups read the child inode, which is colocated with the
                // parent's children.
                self.placement.borrow().file_owner(key)
            }
            _ => {
                let _ = parent;
                self.placement.borrow().file_owner(key)
            }
        }
    }

    fn attach_dirty_query(&self, _op: &MetaOp) -> bool {
        false
    }

    fn needs_target_resolution(&self, op: &MetaOp) -> bool {
        matches!(
            self.placement.borrow().policy(),
            PartitionPolicy::PerDirectoryHash | PartitionPolicy::Subtree
        ) && matches!(
            op,
            MetaOp::Statdir { .. } | MetaOp::Readdir { .. } | MetaOp::Rmdir { .. }
        )
    }

    fn num_servers(&self) -> usize {
        self.placement.num_servers()
    }

    fn epoch(&self) -> u64 {
        self.placement.epoch()
    }

    fn install_map(&self, map: &ShardMap) {
        self.placement.install(map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{MetaKey, Permissions};

    fn create_op(name: &str) -> MetaOp {
        MetaOp::Create {
            key: MetaKey::new(DirId::ROOT, name),
            perm: Permissions::default(),
        }
    }

    #[test]
    fn switchfs_spreads_files_and_pins_fingerprint_groups() {
        let r = SwitchFsRouter::with_servers(8, true);
        let owners: std::collections::BTreeSet<ServerId> = (0..200)
            .map(|i| r.destination(&create_op(&format!("f{i}")), None, None))
            .collect();
        assert!(owners.len() > 1, "per-file hashing must spread siblings");
        let statdir = MetaOp::Statdir {
            key: MetaKey::new(DirId::ROOT, "dir"),
        };
        let mkdir = MetaOp::Mkdir {
            key: MetaKey::new(DirId::ROOT, "dir"),
            perm: Permissions::default(),
        };
        assert_eq!(
            r.destination(&statdir, None, None),
            r.destination(&mkdir, None, None),
            "directory reads and mkdir of the same directory target its fingerprint owner"
        );
        assert!(r.attach_dirty_query(&statdir));
        assert!(!r.attach_dirty_query(&mkdir));
    }

    #[test]
    fn grouping_baseline_colocates_siblings() {
        let r = BaselineRouter::with_servers(PartitionPolicy::PerDirectoryHash, 8);
        let owners: std::collections::BTreeSet<ServerId> = (0..200)
            .map(|i| r.destination(&create_op(&format!("f{i}")), None, None))
            .collect();
        assert_eq!(owners.len(), 1, "P/C grouping must colocate siblings");
        assert!(!r.attach_dirty_query(&MetaOp::Statdir {
            key: MetaKey::new(DirId::ROOT, "d")
        }));
    }

    #[test]
    fn separation_baseline_spreads_siblings() {
        let r = BaselineRouter::with_servers(PartitionPolicy::PerFileHash, 8);
        let owners: std::collections::BTreeSet<ServerId> = (0..200)
            .map(|i| r.destination(&create_op(&format!("f{i}")), None, None))
            .collect();
        assert!(owners.len() > 1);
        assert!(!r.needs_target_resolution(&MetaOp::Statdir {
            key: MetaKey::new(DirId::ROOT, "d")
        }));
    }

    #[test]
    fn grouping_baseline_needs_target_resolution_for_dir_reads() {
        let r = BaselineRouter::with_servers(PartitionPolicy::PerDirectoryHash, 4);
        assert!(r.needs_target_resolution(&MetaOp::Statdir {
            key: MetaKey::new(DirId::ROOT, "d")
        }));
        assert!(!r.needs_target_resolution(&create_op("f")));
    }
}
