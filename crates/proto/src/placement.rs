//! Metadata placement (§2.1, Tab. 1): which server stores each metadata
//! object and which server a request for it is sent to. This module *is* the
//! routing rule: clients address every request with [`Placement::route`],
//! servers re-check a stale-routed one with [`Placement::accepts`], and
//! migration, preloading and the migration freeze gates ask
//! [`Placement::inode_role_hashes`] / [`key_hashes`] where an object may be
//! stored. Nothing outside it decides what an object hashes by. There are
//! two policies:
//!
//! * **P/C separation** (per-file hashing): every metadata object is placed
//!   by hashing its `(pid, name)` key — the policy of CFS and SwitchFS.
//!   SwitchFS additionally requires that all directories sharing a
//!   fingerprint live on the same server, so *directory* inodes are placed
//!   by fingerprint (which is itself a hash of `(pid, name)`). A directory
//!   is stored once: inode, entry list and owner index live with its
//!   fingerprint group.
//! * **P/C grouping** (per-directory hashing): a directory's children are
//!   colocated with the directory's entry list on the server selected by
//!   hashing the directory id — the policy of InfiniFS / IndexFS / BeeGFS,
//!   and what the CephFS-like baseline runs. A directory's inode is stored
//!   twice: the *access* replica with its parent's children (what `mkdir`,
//!   `lookup` and a rename of its name address) and the *content* replica
//!   with its own children (what `statdir`, `readdir`, `rmdir` and entry
//!   updates address, by the directory's id).

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

use crate::ids::{DirId, Fingerprint, ServerId};
use crate::message::MetaOp;
use crate::schema::{InodeAttrs, MetaKey};
use serde::{Deserialize, Serialize};

/// Which partitioning rule a cluster uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionPolicy {
    /// Per-file hashing (parent/children separation).
    PerFileHash,
    /// Per-directory hashing (parent/children grouping).
    PerDirectoryHash,
}

/// Every placement hash an object stored under `key` may have, whatever its
/// type and the policy: per-file, fingerprint, parent. The conservative set
/// of the migration freeze gates, which must not let a request or a staged
/// mutation into a frozen shard under *any* of its roles; a directory's own
/// id hash (not derivable from the key) is added by the caller that knows it.
pub fn key_hashes(key: &MetaKey) -> [u64; 3] {
    [
        key.hash64(),
        Fingerprint::of_dir(&key.pid, &key.name).hash64(),
        key.pid.hash64(),
    ]
}

/// Maps metadata objects to their owner servers. An implementation says
/// which policy it follows and who owns a placement hash; what each kind of
/// object hashes by under each policy is written once, here.
pub trait Placement {
    /// The configured policy.
    fn policy(&self) -> PartitionPolicy;

    /// Owner for an arbitrary pre-computed placement hash.
    fn owner_of_hash(&self, hash: u64) -> ServerId;

    /// True under P/C separation. The one policy question code outside this
    /// module asks, and only where the *protocol* differs, never to pick a
    /// hash: under separation a key's file and directory inodes live on
    /// different servers (so the other type is probed for), a directory's
    /// content travels with its fingerprint on rename, and there is no
    /// second inode replica to initialise, remove or accept requests for.
    fn is_separation(&self) -> bool {
        self.policy() == PartitionPolicy::PerFileHash
    }

    /// Owner of a *file* inode identified by its `(pid, name)` key.
    fn file_owner(&self, key: &MetaKey) -> ServerId {
        match self.policy() {
            // Files are spread by their own key.
            PartitionPolicy::PerFileHash => self.owner_of_hash(key.hash64()),
            // Files are colocated with their parent directory's children.
            PartitionPolicy::PerDirectoryHash => self.dir_owner_by_id(&key.pid),
        }
    }

    /// Owner of a *directory* inode (and its entry list) identified by the
    /// directory's fingerprint. Used by SwitchFS so that a fingerprint group
    /// maps to exactly one server (§4.3).
    fn dir_owner_by_fp(&self, fp: Fingerprint) -> ServerId {
        self.owner_of_hash(fp.hash64())
    }

    /// Owner of a directory's children under P/C grouping, identified by the
    /// directory id.
    fn dir_owner_by_id(&self, id: &DirId) -> ServerId {
        self.owner_of_hash(id.hash64())
    }

    /// The server holding the inode a directory is *reached* through — what
    /// `mkdir`, `lookup` and a rename of its name address: the fingerprint
    /// group's owner under separation, the parent's children server under
    /// grouping (the access replica, where a file of that name would be too).
    fn dir_access_owner(&self, key: &MetaKey) -> ServerId {
        match self.policy() {
            PartitionPolicy::PerFileHash => {
                self.dir_owner_by_fp(Fingerprint::of_dir(&key.pid, &key.name))
            }
            PartitionPolicy::PerDirectoryHash => self.dir_owner_by_id(&key.pid),
        }
    }

    /// The placement hash of a directory's *content*: its entry list, its
    /// owner-index record and every update addressed to it. Content follows
    /// the fingerprint under per-file hashing (the directory lives with its
    /// fingerprint group) and the directory id under grouping (the directory
    /// lives with its children).
    fn dir_content_hash(&self, fp: Fingerprint, id: &DirId) -> u64 {
        match self.policy() {
            PartitionPolicy::PerFileHash => fp.hash64(),
            PartitionPolicy::PerDirectoryHash => id.hash64(),
        }
    }

    /// The server holding a directory's content (see
    /// [`Placement::dir_content_hash`]).
    fn dir_content_owner(&self, fp: Fingerprint, id: &DirId) -> ServerId {
        self.owner_of_hash(self.dir_content_hash(fp, id))
    }

    /// The placement hashes under which an inode is stored, one per replica:
    /// a file's single role, a directory's fingerprint under separation, a
    /// directory's access and content roles under grouping. What migration
    /// extracts and keeps by, and where preloading installs; allocates, so
    /// not for the request path.
    fn inode_role_hashes(&self, key: &MetaKey, attrs: &InodeAttrs) -> Vec<u64> {
        match (self.policy(), attrs.is_dir()) {
            (PartitionPolicy::PerFileHash, false) => vec![key.hash64()],
            (PartitionPolicy::PerFileHash, true) => {
                vec![Fingerprint::of_dir(&key.pid, &key.name).hash64()]
            }
            (PartitionPolicy::PerDirectoryHash, false) => vec![key.pid.hash64()],
            (PartitionPolicy::PerDirectoryHash, true) => {
                vec![key.pid.hash64(), attrs.id.hash64()]
            }
        }
    }

    /// True if the client must resolve the final path component before
    /// [`Placement::route`] can address `op`: under grouping, the operations
    /// on a directory's content go by the directory's id.
    fn needs_target(&self, op: &MetaOp) -> bool {
        !self.is_separation()
            && matches!(
                op,
                MetaOp::Statdir { .. } | MetaOp::Readdir { .. } | MetaOp::Rmdir { .. }
            )
    }

    /// The server a client sends `op` to. `target` is what the client knows
    /// of the final path component: resolved attributes when
    /// [`Placement::needs_target`] asked for them, a cached copy for
    /// `rename`, `None` otherwise. On every request's path: no allocation.
    ///
    /// Not done here: `stat`, `open`, `close` and `chmod` address a *file*
    /// key, whatever the path names. On a directory path they therefore
    /// succeed under grouping (the access replica sits where a file of that
    /// name would) and only by hash coincidence under separation (3 of 16
    /// names at 8 servers, SwitchFS and E-CFS alike). Directories have
    /// `statdir`; the chaos model counts "stat succeeded on a directory" as a
    /// violation, so this is recorded, not repaired. Nor is `target`'s type
    /// checked: under grouping a directory operation on a path that resolved
    /// to a file goes by the file's id, to a server that finds nothing there.
    fn route(&self, op: &MetaOp, target: Option<&InodeAttrs>) -> ServerId {
        let key = op.primary_key();
        match op {
            // A directory's content: with its fingerprint group under
            // separation; under grouping by the directory's own id, and by
            // the parent's until the client has resolved it.
            MetaOp::Statdir { .. } | MetaOp::Readdir { .. } | MetaOp::Rmdir { .. } => {
                let fp = Fingerprint::of_dir(&key.pid, &key.name);
                self.dir_content_owner(fp, &target.map_or(key.pid, |a| a.id))
            }
            MetaOp::Mkdir { .. } | MetaOp::Lookup { .. } => self.dir_access_owner(key),
            // Rename is coordinated by the source inode's owner, which
            // depends on the source's type. On a cold cache the request
            // takes the file route and the server there forwards a
            // directory rename — the client never probes.
            MetaOp::Rename { .. } if target.is_some_and(InodeAttrs::is_dir) => {
                self.dir_access_owner(key)
            }
            _ => self.file_owner(key),
        }
    }

    /// True if `server` is a destination [`Placement::route`] may have
    /// produced for `op`, whatever the client knew of the target: the check
    /// a server makes of a request routed with a stale map, which must be
    /// exactly as strict as the routing (accepting a non-owner would let a
    /// stale-routed create materialize state on the wrong server). Knowledge
    /// of the target moves two kinds of request: a rename, whose two
    /// candidates are both accepted, and under grouping an operation on a
    /// directory's content, addressed by an id the request does not carry —
    /// only the server storing that replica can tell, and adds that clause
    /// itself.
    fn accepts(&self, op: &MetaOp, server: ServerId) -> bool {
        self.route(op, None) == server
            || matches!(op, MetaOp::Rename { .. })
                && self.dir_access_owner(op.primary_key()) == server
    }
}

/// Baseline number of virtual shards a map aims for. The actual count is
/// rounded up to the nearest multiple of the initial server count so the
/// epoch-0 assignment `shard s → server (s mod n)` reproduces the historic
/// `hash % n` placement bit for bit.
pub const BASE_SHARDS: usize = 256;

/// An epoch-versioned map of virtual shards to servers.
///
/// The hash space is split into a fixed number of virtual shards
/// (`shard = hash % num_shards`), each owned by one server. Epoch 0 is
/// extensionally equal to modulo placement (`hash % servers`) over the
/// initial server count; every later reassignment (live shard migration, server addition) bumps
/// the epoch, and clients holding a stale epoch are rejected with
/// [`crate::message::OpResult::WrongOwner`] carrying the current map.
///
/// Because only reassigned shards change owners, growing the cluster from
/// `n` to `n+1` servers moves ~`1/(n+1)` of the key space — unlike the old
/// modulo placement, which would have reshuffled nearly every key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    policy: PartitionPolicy,
    epoch: u64,
    servers: usize,
    shards: Vec<ServerId>,
    /// Servers that were gracefully decommissioned: their ids stay allocated
    /// (ids index node tables and must never be reused), but they own no
    /// shards and are excluded from every rebalance/drain plan. Sorted.
    retired: Vec<ServerId>,
}

impl ShardMap {
    /// The epoch-0 map over `servers` servers: `num_shards` is the smallest
    /// multiple of `servers` that is at least [`BASE_SHARDS`], and shard `s`
    /// is owned by server `s % servers` — bit-identical to `hash % servers`.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn initial(policy: PartitionPolicy, servers: usize) -> Self {
        assert!(servers > 0, "placement needs at least one server");
        let per_server = BASE_SHARDS.div_ceil(servers).max(1);
        let num_shards = servers * per_server;
        let shards = (0..num_shards)
            .map(|s| ServerId((s % servers) as u32))
            .collect();
        ShardMap {
            policy,
            epoch: 0,
            servers,
            shards,
            retired: Vec::new(),
        }
    }

    /// Number of registered servers (retired ones included: ids are never
    /// reused).
    pub fn num_servers(&self) -> usize {
        self.servers
    }

    /// The current map version; bumped by every shard reassignment.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of virtual shards (fixed for the lifetime of the cluster).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a placement hash falls into.
    pub fn shard_of_hash(&self, hash: u64) -> u32 {
        (hash % self.shards.len() as u64) as u32
    }

    /// The server owning shard `shard`.
    pub fn owner_of_shard(&self, shard: u32) -> ServerId {
        self.shards[shard as usize]
    }

    /// Number of shards currently owned by `server`.
    pub fn shards_owned(&self, server: ServerId) -> usize {
        self.shards.iter().filter(|s| **s == server).count()
    }

    /// Registers one more server without moving any shards (it owns nothing
    /// until a rebalance assigns shards to it). Returns the new server's id.
    pub fn add_server(&mut self) -> ServerId {
        let id = ServerId(self.servers as u32);
        self.servers += 1;
        id
    }

    /// True when `server` was gracefully decommissioned: it owns no shards
    /// and must not appear in any plan or fan-out set.
    pub fn is_retired(&self, server: ServerId) -> bool {
        self.retired.binary_search(&server).is_ok()
    }

    /// Number of servers still serving (registered minus retired).
    pub fn num_active_servers(&self) -> usize {
        self.servers - self.retired.len()
    }

    /// Marks a fully drained server as decommissioned, bumping the epoch so
    /// clients holding a map from before the shrink refresh on their next
    /// `WrongOwner` rejection.
    ///
    /// # Panics
    ///
    /// Panics if the server still owns shards (drain it first), if it is the
    /// last active server, or if it is already retired.
    pub fn retire(&mut self, server: ServerId) {
        assert_eq!(
            self.shards_owned(server),
            0,
            "cannot retire {server}: it still owns shards"
        );
        assert!(
            self.num_active_servers() > 1,
            "cannot retire the last active server"
        );
        let slot = self
            .retired
            .binary_search(&server)
            .expect_err("server is already retired");
        self.retired.insert(slot, server);
        self.epoch += 1;
    }

    /// Reassigns one shard, bumping the epoch. Used by live migration: the
    /// flip happens only after the shard's state is installed at the target.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a registered server or is retired.
    pub fn assign(&mut self, shard: u32, to: ServerId) {
        assert!((to.0 as usize) < self.servers, "unknown server {to}");
        assert!(
            !self.is_retired(to),
            "cannot assign a shard to {to}: retired"
        );
        if self.shards[shard as usize] != to {
            self.shards[shard as usize] = to;
            self.epoch += 1;
        }
    }

    /// Plans the moves that drain every shard owned by `victim` onto the
    /// surviving active servers (graceful decommission). Deterministic:
    /// victim shards are visited in ascending index order and each goes to
    /// the currently least-loaded survivor (lowest id on ties), so the
    /// survivors end within ±1 of each other. Does not mutate the map.
    pub fn plan_drain(&self, victim: ServerId) -> Vec<(u32, ServerId, ServerId)> {
        let mut counts = vec![usize::MAX; self.servers];
        let mut survivors = 0usize;
        for (i, c) in counts.iter_mut().enumerate() {
            let id = ServerId(i as u32);
            if id != victim && !self.is_retired(id) {
                *c = 0;
                survivors += 1;
            }
        }
        if survivors == 0 {
            return Vec::new();
        }
        for s in &self.shards {
            if counts[s.0 as usize] != usize::MAX {
                counts[s.0 as usize] += 1;
            }
        }
        let mut moves = Vec::new();
        for (shard, owner) in self.shards.iter().enumerate() {
            if *owner != victim {
                continue;
            }
            let (to, _) = counts
                .iter()
                .enumerate()
                .min_by_key(|(i, c)| (**c, *i))
                .expect("at least one survivor");
            counts[to] += 1;
            moves.push((shard as u32, victim, ServerId(to as u32)));
        }
        moves
    }

    /// Plans the moves that balance shard ownership across all registered
    /// *active* servers (fair share ±1; retired servers own nothing and are
    /// never candidates), without mutating the map. Deterministic:
    /// repeatedly moves the lowest-index shard of the most-loaded server to
    /// the least-loaded one. After [`ShardMap::add_server`] this moves
    /// ~`num_shards / servers` shards — ~1/N of the key space.
    pub fn plan_rebalance(&self) -> Vec<(u32, ServerId, ServerId)> {
        let mut owners = self.shards.clone();
        let mut counts = vec![0usize; self.servers];
        for s in &owners {
            counts[s.0 as usize] += 1;
        }
        let active = |i: &usize| !self.is_retired(ServerId(*i as u32));
        let mut moves = Vec::new();
        loop {
            let (max_i, &max_c) = counts
                .iter()
                .enumerate()
                .filter(|(i, _)| active(i))
                .max_by_key(|(i, c)| (**c, usize::MAX - *i))
                .expect("at least one server");
            let (min_i, &min_c) = counts
                .iter()
                .enumerate()
                .filter(|(i, _)| active(i))
                .min_by_key(|(i, c)| (**c, *i))
                .expect("at least one server");
            if max_c - min_c <= 1 {
                return moves;
            }
            let shard = owners
                .iter()
                .position(|o| o.0 as usize == max_i)
                .expect("owner has a shard") as u32;
            owners[shard as usize] = ServerId(min_i as u32);
            counts[max_i] -= 1;
            counts[min_i] += 1;
            moves.push((shard, ServerId(max_i as u32), ServerId(min_i as u32)));
        }
    }
}

impl Placement for ShardMap {
    fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    fn owner_of_hash(&self, hash: u64) -> ServerId {
        self.shards[(hash % self.shards.len() as u64) as usize]
    }
}

/// A cluster-wide shared, mutable [`ShardMap`] handle.
///
/// Servers (and the cluster harness) share one instance: a migration flip
/// through [`SharedPlacement::map_mut`] is immediately visible to every
/// server. Clients hold private *snapshots* instead and refresh them from
/// `WrongOwner` rejections, which is what the epoch field models.
#[derive(Debug, Clone)]
pub struct SharedPlacement(Rc<RefCell<ShardMap>>);

impl SharedPlacement {
    /// Wraps a map into a shared handle.
    pub fn new(map: ShardMap) -> Self {
        SharedPlacement(Rc::new(RefCell::new(map)))
    }

    /// The epoch-0 shared map over `servers` servers.
    pub fn initial(policy: PartitionPolicy, servers: usize) -> Self {
        Self::new(ShardMap::initial(policy, servers))
    }

    /// The shared map, to read. The borrow must not be held across an
    /// `.await` (clippy's `await_holding_refcell_ref`): a flip during the
    /// wait would panic.
    pub fn map(&self) -> Ref<'_, ShardMap> {
        self.0.borrow()
    }

    /// The shared map, to change (a flip, a server added or retired).
    pub fn map_mut(&self) -> RefMut<'_, ShardMap> {
        self.0.borrow_mut()
    }
}

impl Placement for SharedPlacement {
    fn policy(&self) -> PartitionPolicy {
        self.0.borrow().policy()
    }

    fn owner_of_hash(&self, hash: u64) -> ServerId {
        self.0.borrow().owner_of_hash(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The historic `hash % n` placement an epoch-0 map must reproduce.
    struct Modulo(PartitionPolicy, u64);

    impl Placement for Modulo {
        fn policy(&self) -> PartitionPolicy {
            self.0
        }

        fn owner_of_hash(&self, hash: u64) -> ServerId {
            ServerId((hash % self.1) as u32)
        }
    }

    #[test]
    fn per_file_hash_spreads_one_directory() {
        let p = ShardMap::initial(PartitionPolicy::PerFileHash, 8);
        let mut counts: BTreeMap<ServerId, usize> = BTreeMap::new();
        for i in 0..8000 {
            let key = MetaKey::new(DirId::ROOT, format!("f{i}"));
            *counts.entry(p.file_owner(&key)).or_default() += 1;
        }
        assert_eq!(counts.len(), 8);
        // Reasonably balanced: no server owns more than 2x the fair share.
        assert!(counts.values().all(|&c| c < 2000));
    }

    #[test]
    fn per_directory_hash_groups_one_directory() {
        let p = ShardMap::initial(PartitionPolicy::PerDirectoryHash, 8);
        let owners: std::collections::BTreeSet<_> = (0..1000)
            .map(|i| p.file_owner(&MetaKey::new(DirId::ROOT, format!("f{i}"))))
            .collect();
        assert_eq!(owners.len(), 1, "P/C grouping must colocate siblings");
    }

    #[test]
    fn routing_pins_a_directory_and_spreads_or_groups_its_files() {
        let key = |name: &str| MetaKey::new(DirId::ROOT, name);
        let perm = crate::schema::Permissions::default();
        let creates = |map: &ShardMap| -> std::collections::BTreeSet<ServerId> {
            (0..200)
                .map(|i| MetaOp::Create {
                    key: key(&format!("f{i}")),
                    perm,
                })
                .map(|op| map.route(&op, None))
                .collect()
        };
        let statdir = MetaOp::Statdir { key: key("dir") };
        let mkdir = MetaOp::Mkdir {
            key: key("dir"),
            perm,
        };
        // Separation: siblings spread, while a directory's reads and its
        // mkdir reach its fingerprint owner without knowing its id.
        let sep = ShardMap::initial(PartitionPolicy::PerFileHash, 8);
        assert!(creates(&sep).len() > 1, "siblings must spread");
        assert_eq!(sep.route(&statdir, None), sep.route(&mkdir, None));
        assert!(!sep.needs_target(&statdir));
        // Grouping: siblings colocate, and a directory read goes by the
        // directory's id, which the client must resolve first.
        let grp = ShardMap::initial(PartitionPolicy::PerDirectoryHash, 8);
        assert_eq!(creates(&grp).len(), 1, "siblings must colocate");
        assert!(grp.needs_target(&statdir));
        assert!(!grp.needs_target(&MetaOp::Delete { key: key("f") }));
    }

    #[test]
    fn fingerprint_groups_map_to_one_server() {
        let p = ShardMap::initial(PartitionPolicy::PerFileHash, 8);
        let fp = Fingerprint::of_dir(&DirId::ROOT, "dir");
        assert_eq!(p.dir_owner_by_fp(fp), p.dir_owner_by_fp(fp));
    }

    #[test]
    fn directory_content_goes_by_fingerprint_or_by_id() {
        let fp = Fingerprint::of_dir(&DirId::ROOT, "dir");
        let id = DirId::generate(ServerId(3), 7);
        let by_fp = ShardMap::initial(PartitionPolicy::PerFileHash, 8);
        assert_eq!(by_fp.dir_content_owner(fp, &id), by_fp.dir_owner_by_fp(fp));
        let by_id = ShardMap::initial(PartitionPolicy::PerDirectoryHash, 8);
        assert_eq!(by_id.dir_content_owner(fp, &id), by_id.dir_owner_by_id(&id));
    }

    #[test]
    fn owner_is_always_in_range() {
        let p = ShardMap::initial(PartitionPolicy::PerFileHash, 5);
        for h in [0u64, 1, u64::MAX, 12345678901234567] {
            assert!(p.owner_of_hash(h).0 < 5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = ShardMap::initial(PartitionPolicy::PerFileHash, 0);
    }

    #[test]
    fn epoch0_shard_map_matches_modulo_placement() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 300] {
            let map = ShardMap::initial(PartitionPolicy::PerFileHash, n);
            assert_eq!(map.epoch(), 0);
            assert_eq!(map.num_shards() % n, 0);
            assert!(map.num_shards() >= BASE_SHARDS.min(n * BASE_SHARDS));
            let old = Modulo(PartitionPolicy::PerFileHash, n as u64);
            for h in [0u64, 1, 255, 256, 12345678901234567, u64::MAX] {
                assert_eq!(map.owner_of_hash(h), old.owner_of_hash(h), "n={n} h={h}");
            }
        }
    }

    #[test]
    fn add_server_then_rebalance_moves_a_fair_share() {
        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, 4);
        let new = map.add_server();
        assert_eq!(new, ServerId(4));
        assert_eq!(map.shards_owned(new), 0);
        let moves = map.plan_rebalance();
        // 256 shards over 5 servers: the new server ends with 51±1 shards
        // and nothing else moves.
        assert!(moves.len() >= map.num_shards() / 5 - 1);
        assert!(moves.len() <= map.num_shards() / 4);
        assert!(moves.iter().all(|(_, _, to)| *to == new));
        let before = map.clone();
        for (shard, from, to) in &moves {
            assert_eq!(map.owner_of_shard(*shard), *from);
            map.assign(*shard, *to);
        }
        assert_eq!(map.epoch(), moves.len() as u64);
        for s in 0..5u32 {
            let owned = map.shards_owned(ServerId(s));
            assert!(
                owned >= map.num_shards() / 5 && owned <= map.num_shards() / 5 + 1,
                "server {s} owns {owned}"
            );
        }
        // Unmoved shards keep their owner (bounded movement).
        let moved: std::collections::BTreeSet<u32> = moves.iter().map(|m| m.0).collect();
        for shard in 0..map.num_shards() as u32 {
            if !moved.contains(&shard) {
                assert_eq!(map.owner_of_shard(shard), before.owner_of_shard(shard));
            }
        }
    }

    #[test]
    fn shared_placement_flip_is_visible_through_every_handle() {
        let shared = SharedPlacement::initial(PartitionPolicy::PerFileHash, 2);
        let other = shared.clone();
        let new = shared.map_mut().add_server();
        shared.map_mut().assign(0, new);
        assert_eq!(other.map().owner_of_shard(0), new);
        assert_eq!(other.map().epoch(), 1);
        // Snapshots are decoupled: a later flip does not change them.
        let snap = other.map().clone();
        shared.map_mut().assign(1, new);
        assert_eq!(snap.owner_of_shard(1), ServerId(1));
        assert_eq!(other.map().owner_of_shard(1), new);
    }

    #[test]
    fn rebalance_of_a_balanced_map_is_empty() {
        let map = ShardMap::initial(PartitionPolicy::PerDirectoryHash, 8);
        assert!(map.plan_rebalance().is_empty());
    }

    #[test]
    fn drain_plan_moves_every_victim_shard_to_balanced_survivors() {
        let map = ShardMap::initial(PartitionPolicy::PerFileHash, 4);
        let victim = ServerId(1);
        let owned = map.shards_owned(victim);
        let moves = map.plan_drain(victim);
        assert_eq!(moves.len(), owned, "every victim shard must move");
        assert!(moves.iter().all(|(_, from, _)| *from == victim));
        assert!(moves.iter().all(|(_, _, to)| *to != victim));
        // Shards are visited in ascending index order (deterministic plan).
        assert!(moves.windows(2).all(|w| w[0].0 < w[1].0));
        let mut map = map.clone();
        for (shard, from, to) in &moves {
            assert_eq!(map.owner_of_shard(*shard), *from);
            map.assign(*shard, *to);
        }
        assert_eq!(map.shards_owned(victim), 0);
        // Survivors end within ±1 of the post-shrink fair share.
        let fair = map.num_shards() / 3;
        for s in [0u32, 2, 3] {
            let owned = map.shards_owned(ServerId(s));
            assert!(
                owned >= fair && owned <= fair + 1,
                "server {s} owns {owned} (fair {fair})"
            );
        }
        assert!(
            map.plan_drain(victim).is_empty(),
            "drained victim owns nothing"
        );
    }

    #[test]
    fn retire_excludes_a_server_from_future_plans() {
        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, 3);
        let victim = ServerId(2);
        for (shard, _, to) in map.plan_drain(victim) {
            map.assign(shard, to);
        }
        let epoch_before = map.epoch();
        map.retire(victim);
        assert!(map.is_retired(victim));
        assert_eq!(map.num_active_servers(), 2);
        assert_eq!(
            map.epoch(),
            epoch_before + 1,
            "retiring must bump the epoch"
        );
        // A retired server never reappears as a rebalance target.
        assert!(map
            .plan_rebalance()
            .iter()
            .all(|(_, from, to)| *from != victim && *to != victim));
        assert!(map.plan_drain(victim).is_empty());
    }

    #[test]
    #[should_panic(expected = "still owns shards")]
    fn retiring_an_undrained_server_panics() {
        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, 3);
        map.retire(ServerId(1));
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn assigning_to_a_retired_server_panics() {
        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, 3);
        let victim = ServerId(2);
        for (shard, _, to) in map.plan_drain(victim) {
            map.assign(shard, to);
        }
        map.retire(victim);
        map.assign(0, victim);
    }

    // ------------------------------------------------------------------
    // The routing rule against itself: what a client addresses, what a
    // server accepts and where migration looks must agree, under both
    // policies, at epoch 0 and after shards moved and a server retired.
    // ------------------------------------------------------------------

    const POLICIES: [PartitionPolicy; 2] = [
        PartitionPolicy::PerFileHash,
        PartitionPolicy::PerDirectoryHash,
    ];

    /// The epoch-0 map and one that drained and retired a server, added
    /// another and rebalanced onto it.
    fn maps(policy: PartitionPolicy) -> [ShardMap; 2] {
        let fresh = ShardMap::initial(policy, 5);
        let mut moved = fresh.clone();
        for (shard, _, to) in moved.plan_drain(ServerId(3)) {
            moved.assign(shard, to);
        }
        moved.retire(ServerId(3));
        moved.add_server();
        for (shard, _, to) in moved.plan_rebalance() {
            moved.assign(shard, to);
        }
        assert!(moved.epoch() > 0 && moved.is_retired(ServerId(3)));
        [fresh, moved]
    }

    /// Keys under the root and under a generated directory.
    fn keys() -> impl Iterator<Item = MetaKey> {
        (0..40u64).map(|i| {
            let pid = [DirId::ROOT, DirId::generate(ServerId(1), i)][(i % 2) as usize];
            MetaKey::new(pid, format!("n{i}"))
        })
    }

    /// One operation of every kind on `key`, tagged with the type of inode
    /// it addresses (`None`: either, the source's type decides).
    fn every_op(key: &MetaKey) -> Vec<(MetaOp, Option<bool>)> {
        let key = key.clone();
        let perm = crate::schema::Permissions::default();
        let dst = MetaKey::new(DirId::ROOT, "dst");
        vec![
            (MetaOp::Lookup { key: key.clone() }, Some(true)),
            (
                MetaOp::Mkdir {
                    key: key.clone(),
                    perm,
                },
                Some(true),
            ),
            (MetaOp::Rmdir { key: key.clone() }, Some(true)),
            (MetaOp::Statdir { key: key.clone() }, Some(true)),
            (MetaOp::Readdir { key: key.clone() }, Some(true)),
            (
                MetaOp::Create {
                    key: key.clone(),
                    perm,
                },
                Some(false),
            ),
            (MetaOp::Delete { key: key.clone() }, Some(false)),
            (MetaOp::Stat { key: key.clone() }, Some(false)),
            (MetaOp::Open { key: key.clone() }, Some(false)),
            (MetaOp::Close { key: key.clone() }, Some(false)),
            (
                MetaOp::Chmod {
                    key: key.clone(),
                    mode: 0o600,
                },
                Some(false),
            ),
            (
                MetaOp::Rename {
                    src: key,
                    dst,
                    dst_parent: None,
                },
                None,
            ),
        ]
    }

    /// What the client may know of the target: nothing, a file, a directory.
    fn targets(i: u64) -> [Option<InodeAttrs>; 3] {
        let id = DirId::generate(ServerId(2), 1000 + i);
        [
            None,
            Some(InodeAttrs::new_file(id, 0, Default::default())),
            Some(InodeAttrs::new_dir(id, 0, Default::default())),
        ]
    }

    fn stores(map: &ShardMap, server: ServerId, key: &MetaKey, attrs: &InodeAttrs) -> bool {
        let roles = map.inode_role_hashes(key, attrs);
        roles.iter().any(|h| map.owner_of_hash(*h) == server)
    }

    #[test]
    fn the_server_accepts_what_the_router_routes() {
        for map in POLICIES.into_iter().flat_map(maps) {
            for (i, key) in keys().enumerate() {
                for target in targets(i as u64) {
                    for (op, _) in every_op(&key) {
                        let dest = map.route(&op, target.as_ref());
                        // `Server::may_own`: `accepts`, or under grouping a
                        // replica of the addressed inode stored there.
                        let stored = target.as_ref().is_some_and(|a| stores(&map, dest, &key, a));
                        let accepted = map.accepts(&op, dest) || !map.is_separation() && stored;
                        // The one destination nobody vouches for: a directory
                        // operation the client resolved to a *file* goes by
                        // that file's id to a server storing nothing under
                        // it, which answers so whatever the epoch.
                        let misaddressed =
                            map.needs_target(&op) && target.as_ref().is_some_and(|a| !a.is_dir());
                        assert!(
                            accepted || misaddressed,
                            "{:?} epoch {}: {op:?} with {target:?} routed to {dest}, not accepted",
                            map.policy(),
                            map.epoch()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_request_reaches_a_replica_of_the_inode_it_addresses() {
        for map in POLICIES.into_iter().flat_map(maps) {
            for (i, key) in keys().enumerate() {
                let [_, file, dir] = targets(i as u64);
                for (op, addresses_dir) in every_op(&key) {
                    for attrs in [&file, &dir].into_iter().flatten() {
                        if addresses_dir.is_some_and(|d| d != attrs.is_dir()) {
                            continue;
                        }
                        let dest = map.route(&op, Some(attrs));
                        assert!(
                            stores(&map, dest, &key, attrs),
                            "{:?} epoch {}: {op:?} routed to {dest}, which stores no replica",
                            map.policy(),
                            map.epoch()
                        );
                        assert!(!map.is_retired(dest));
                    }
                }
            }
        }
    }

    #[test]
    fn the_freeze_gates_cannot_miss_a_role() {
        for policy in POLICIES {
            let map = ShardMap::initial(policy, 5);
            for (i, key) in keys().enumerate() {
                for attrs in targets(i as u64).into_iter().flatten() {
                    for role in map.inode_role_hashes(&key, &attrs) {
                        // The gates add a directory's id hash themselves:
                        // it is not derivable from the key.
                        assert!(
                            key_hashes(&key).contains(&role)
                                || attrs.is_dir() && role == attrs.id.hash64(),
                            "{policy:?}: a role of {key} is in no freeze gate's set"
                        );
                    }
                }
            }
        }
    }
}
