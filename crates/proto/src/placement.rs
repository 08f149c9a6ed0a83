//! Metadata partitioning policies (§2.1, Tab. 1).
//!
//! * **P/C separation** (per-file hashing): every metadata object is placed
//!   by hashing its `(pid, name)` key — the policy of CFS and SwitchFS.
//!   SwitchFS additionally requires that all directories sharing a
//!   fingerprint live on the same server, so *directory* inodes are placed
//!   by fingerprint (which is itself a hash of `(pid, name)`).
//! * **P/C grouping** (per-directory hashing): a directory's children are
//!   colocated with the directory's entry list on the server selected by
//!   hashing the directory id — the policy of InfiniFS / IndexFS / BeeGFS.
//! * **Subtree**: entire top-level subtrees are assigned to servers — the
//!   (static) approximation of CephFS's subtree partitioning used by the
//!   CephFS-like baseline.

use std::cell::RefCell;
use std::rc::Rc;

use crate::ids::{DirId, Fingerprint, ServerId};
use crate::schema::MetaKey;
use serde::{Deserialize, Serialize};

/// Which partitioning rule a cluster uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionPolicy {
    /// Per-file hashing (parent/children separation).
    PerFileHash,
    /// Per-directory hashing (parent/children grouping).
    PerDirectoryHash,
    /// Static subtree partitioning by top-level directory.
    Subtree,
}

/// Maps metadata objects to their owner servers. An implementation says
/// which policy it follows and who owns a placement hash; what each kind of
/// object hashes by under each policy is written once, here.
pub trait Placement {
    /// The configured policy.
    fn policy(&self) -> PartitionPolicy;

    /// Owner for an arbitrary pre-computed placement hash.
    fn owner_of_hash(&self, hash: u64) -> ServerId;

    /// Owner of a *file* inode identified by its `(pid, name)` key.
    fn file_owner(&self, key: &MetaKey) -> ServerId {
        match self.policy() {
            // Files are spread by their own key.
            PartitionPolicy::PerFileHash => self.owner_of_hash(key.hash64()),
            // Files are colocated with their parent directory's children.
            PartitionPolicy::PerDirectoryHash | PartitionPolicy::Subtree => {
                self.dir_owner_by_id(&key.pid)
            }
        }
    }

    /// Owner of a *directory* inode (and its entry list) identified by the
    /// directory's fingerprint. Used by SwitchFS so that a fingerprint group
    /// maps to exactly one server (§4.3).
    fn dir_owner_by_fp(&self, fp: Fingerprint) -> ServerId {
        self.owner_of_hash(crate::ids::splitmix64(fp.raw()))
    }

    /// Owner of a directory's children under P/C grouping, identified by the
    /// directory id.
    fn dir_owner_by_id(&self, id: &DirId) -> ServerId {
        self.owner_of_hash(id.hash64())
    }

    /// The placement hash of a directory's *content*: its entry list, its
    /// owner-index record and every update addressed to it. Content follows
    /// the fingerprint under per-file hashing (the directory lives with its
    /// fingerprint group) and the directory id under the grouping policies
    /// (the directory lives with its children).
    fn dir_content_hash(&self, fp: Fingerprint, id: &DirId) -> u64 {
        match self.policy() {
            PartitionPolicy::PerFileHash => crate::ids::splitmix64(fp.raw()),
            PartitionPolicy::PerDirectoryHash | PartitionPolicy::Subtree => id.hash64(),
        }
    }

    /// The server holding a directory's content (see
    /// [`Placement::dir_content_hash`]).
    fn dir_content_owner(&self, fp: Fingerprint, id: &DirId) -> ServerId {
        self.owner_of_hash(self.dir_content_hash(fp, id))
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
/// through [`SharedPlacement::assign`] is immediately visible to every
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

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.0.borrow().epoch()
    }

    /// Number of virtual shards.
    pub fn num_shards(&self) -> usize {
        self.0.borrow().num_shards()
    }

    /// A point-in-time copy of the map (client caches, `WrongOwner` bodies).
    pub fn snapshot(&self) -> ShardMap {
        self.0.borrow().clone()
    }

    /// See [`ShardMap::shard_of_hash`].
    pub fn shard_of_hash(&self, hash: u64) -> u32 {
        self.0.borrow().shard_of_hash(hash)
    }

    /// See [`ShardMap::owner_of_shard`].
    pub fn owner_of_shard(&self, shard: u32) -> ServerId {
        self.0.borrow().owner_of_shard(shard)
    }

    /// See [`ShardMap::shards_owned`].
    pub fn shards_owned(&self, server: ServerId) -> usize {
        self.0.borrow().shards_owned(server)
    }

    /// See [`ShardMap::add_server`].
    pub fn add_server(&self) -> ServerId {
        self.0.borrow_mut().add_server()
    }

    /// See [`ShardMap::assign`].
    pub fn assign(&self, shard: u32, to: ServerId) {
        self.0.borrow_mut().assign(shard, to);
    }

    /// See [`ShardMap::retire`].
    pub fn retire(&self, server: ServerId) {
        self.0.borrow_mut().retire(server);
    }

    /// See [`ShardMap::is_retired`].
    pub fn is_retired(&self, server: ServerId) -> bool {
        self.0.borrow().is_retired(server)
    }

    /// See [`ShardMap::num_active_servers`].
    pub fn num_active_servers(&self) -> usize {
        self.0.borrow().num_active_servers()
    }

    /// See [`ShardMap::plan_rebalance`].
    pub fn plan_rebalance(&self) -> Vec<(u32, ServerId, ServerId)> {
        self.0.borrow().plan_rebalance()
    }

    /// See [`ShardMap::plan_drain`].
    pub fn plan_drain(&self, victim: ServerId) -> Vec<(u32, ServerId, ServerId)> {
        self.0.borrow().plan_drain(victim)
    }

    /// Number of metadata servers.
    pub fn num_servers(&self) -> usize {
        self.0.borrow().num_servers()
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
        for policy in [PartitionPolicy::PerDirectoryHash, PartitionPolicy::Subtree] {
            let by_id = ShardMap::initial(policy, 8);
            assert_eq!(by_id.dir_content_owner(fp, &id), by_id.dir_owner_by_id(&id));
        }
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
        let new = shared.add_server();
        shared.assign(0, new);
        assert_eq!(other.owner_of_shard(0), new);
        assert_eq!(other.epoch(), 1);
        // Snapshots are decoupled: a later flip does not change them.
        let snap = other.snapshot();
        shared.assign(1, new);
        assert_eq!(snap.owner_of_shard(1), ServerId(1));
        assert_eq!(other.owner_of_shard(1), new);
    }

    #[test]
    fn rebalance_of_a_balanced_map_is_empty() {
        let map = ShardMap::initial(PartitionPolicy::Subtree, 8);
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
}
