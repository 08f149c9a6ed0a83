//! The per-server lock manager.
//!
//! SwitchFS serializes conflicting operations with three families of locks
//! (§5.2), all of them one kind of lock ([`SimClassLock`]; a reader–writer
//! lock is its `read()` / `write()` subset):
//!
//! * **inode locks** — per `(pid, name)` key; write-locked by the operation
//!   that creates/deletes/updates the inode, read-locked by reads;
//! * **change-log locks** — per parent directory, used with both of the
//!   lock's classes. Double-inode operations hold it as [`APPENDER`]s
//!   from before their WAL append until the switch mirrored their
//!   dirty-set insert; handlers answering an aggregation request hold it as
//!   [`RESPONDER`]s from their snapshot until the owner's acknowledgment
//!   let them discard it. Appenders share with appenders — creates in one
//!   directory run in parallel on one server: different names commute
//!   (entry-list mutations of different keys, timestamps merge by max) and
//!   same-name order is the inode write lock's, which is held across the
//!   append — responders share with responders (a retried request must not
//!   queue behind the first one's acknowledgment wait), and the two classes
//!   exclude each other, so a snapshot never contains an entry whose commit
//!   is still in progress and nothing is appended between a snapshot and
//!   its discard. One exception: a responder locks the group's change-logs
//!   that exist when it starts to wait for them (`handle_aggregation_request`
//!   lists the group before its `RESPONDER` awaits) but snapshots the whole
//!   group after them, so a change-log created in the group while it waited
//!   is sent without a responder lock. That is harmless: the owner filters
//!   what it applies by entry id, so an entry that also reaches it another
//!   way is applied once, and the discard after the acknowledgment removes
//!   only the ids that were sent, so an entry appended after the snapshot
//!   stays for a later push or round. The lock is FIFO-fair across the
//!   classes. The synchronous baselines take it exclusively: serializing a
//!   directory's updates is what they model;
//! * **fingerprint-group locks** — per fingerprint; write-locked by whoever
//!   applies updates to a directory of the group, so that directory reads
//!   of any directory in the group wait for the apply to finish (§5.2.2).
//!   An aggregation round runs under the write lock, so a group has at most
//!   one round at a time. Callers that only need the group *aggregated*
//!   (scattered directory reads, a directory-source rename before it
//!   migrates the content) go through `Server::aggregated` and the group's
//!   [`AggGate`]: one takes the write lock for all that arrive while it
//!   queues, skips its round if one that started after the last of them
//!   arrived has completed, and hands each a share of its hold as a reader.
//!   Rounds that run for another reason (rename's directory half, `rmdir`,
//!   the proactive loop, recovery) serve the callers behind them all the same.
//!
//! # Lock order
//!
//! *parent change-log* → *fingerprint group* → *inode*; a handler never
//! takes an earlier family while holding a later one. The first step is the
//! double-inode handlers' (`handle_double_inode`, `handle_rmdir`). The last
//! two guard a directory's inode and entry list against their appliers, and
//! there are exactly two of those:
//!
//! * the **batch applier** (`apply_entries_to_owned_dirs`: aggregation and
//!   push) runs under the group's write lock, taken by its caller, and takes
//!   no inode lock;
//! * the **single-update applier** (`Server::apply_dir_update`: baseline
//!   parent update, overflow fallback, remote update, rename's directory
//!   half) takes the group's write lock and then the directory's inode
//!   write lock. It is the only function that writes that sequence down, so
//!   the order cannot differ between its four callers.
//!
//! The gate adds no lock and no edge to the order: a leader takes the write
//! lock where every gate caller took it before, a follower waits holding
//! nothing, and the read hold both end up with is the leader's own,
//! downgraded in place — nobody waits for one mode while holding the other.
//!
//! Both appliers log the inode effect and the entry effects of one update
//! in one WAL record (`docs/persist-order.md`), and a directory's size is
//! read off the entry list when a reply is built, so no interleaving of the
//! two can make `statdir` disagree with `readdir`.
//!
//! # The tables
//!
//! Each family's locks live in a table by key, created on a key's first
//! miss and kept only while something outside the table has a handle to
//! them. A miss that finds its table twice as large as the last sweep left
//! it (and at least [`SWEEP_FLOOR`]) first sweeps it: every lock whose
//! handle is the table's only one leaves, and up to as many of those as are
//! still in use (at least the floor's worth) are kept, free, for the next
//! misses to take before they allocate. So a table holds at most twice the
//! locks in use at its last sweep, or the floor, not every key the server
//! has touched, and a steady load allocates hardly a lock.
//!
//! A sweep counts handles ([`SimClassLock::is_unshared`]), not holders and
//! waiters: a handler takes its handle (`self.locks.inode(&key)`) before it
//! awaits the acquire, so a lock nobody holds or waits for can still be
//! about to be locked. Dropping it would let the next task for the key get
//! a second lock, and two writers would hold one inode. A lock with no
//! handle has no holder and no waiter (guards and acquires hold handles),
//! so it carries no state anyone can see, and recycling it for another key
//! changes nothing simulated.

use std::cell::RefCell;
use std::hash::Hash;
use std::rc::Rc;

use switchfs_proto::{DirId, Fingerprint, MetaKey};
pub use switchfs_simnet::sync::Access;
use switchfs_simnet::sync::{oneshot, ClassGuard, SimClassLock};
use switchfs_simnet::FxHashMap;

/// Change-log lock class of the operations appending deferred updates.
pub const APPENDER: Access = Access::ClassA;
/// Change-log lock class of the handlers answering an aggregation request.
pub const RESPONDER: Access = Access::ClassB;

/// The size below which a lock table never sweeps.
pub const SWEEP_FLOOR: usize = 64;

/// Lazily-created named locks, one table per family (module doc, "The
/// tables").
#[derive(Default)]
pub struct LockManager {
    inodes: RefCell<Table<MetaKey>>,
    changelogs: RefCell<Table<DirId>>,
    fp_groups: RefCell<Table<u64>>,
}

impl LockManager {
    /// The lock guarding the inode stored under `key`.
    pub fn inode(&self, key: &MetaKey) -> SimClassLock {
        self.inodes.borrow_mut().lock(key)
    }

    /// The lock guarding the change-log of directory `dir`.
    pub fn changelog(&self, dir: &DirId) -> SimClassLock {
        self.changelogs.borrow_mut().lock(dir)
    }

    /// The lock guarding reads and aggregations of a fingerprint group.
    pub fn fp_group(&self, fp: Fingerprint) -> SimClassLock {
        self.fp_groups.borrow_mut().lock(&fp.raw())
    }

    /// Tasks queued for or holding any fingerprint-group lock (used by
    /// tests).
    pub fn fp_group_waiters(&self) -> usize {
        self.fp_groups.borrow().in_use()
    }

    /// Tasks queued for or holding any lock of the three families.
    pub fn in_use(&self) -> usize {
        self.inodes.borrow().in_use()
            + self.changelogs.borrow().in_use()
            + self.fp_groups.borrow().in_use()
    }

    /// Locks in the three tables, in use or not yet swept.
    pub fn tabled(&self) -> usize {
        self.inodes.borrow().locks.len()
            + self.changelogs.borrow().locks.len()
            + self.fp_groups.borrow().locks.len()
    }
}

/// One family's locks by key (module doc, "The tables").
struct Table<K> {
    locks: FxHashMap<K, SimClassLock>,
    /// Free locks the last sweep removed, for the next misses to take.
    spare: Vec<SimClassLock>,
    /// The size at which the next miss sweeps.
    sweep_at: usize,
}

impl<K> Default for Table<K> {
    fn default() -> Self {
        Table {
            locks: FxHashMap::default(),
            spare: Vec::new(),
            sweep_at: SWEEP_FLOOR,
        }
    }
}

impl<K: Hash + Eq + Clone> Table<K> {
    fn lock(&mut self, key: &K) -> SimClassLock {
        // Look up by reference first: the common hit path must not clone
        // the key just to satisfy the entry API.
        if let Some(l) = self.locks.get(key) {
            return l.clone();
        }
        if self.locks.len() >= self.sweep_at {
            self.sweep();
        }
        let lock = self.spare.pop().unwrap_or_default();
        self.locks.insert(key.clone(), lock.clone());
        lock
    }

    /// Removes every lock the table has the only handle to, and keeps as
    /// many of them as are still in use, or [`SWEEP_FLOOR`] if that is more,
    /// for the next misses.
    fn sweep(&mut self) {
        let in_use = self.locks.values().filter(|l| !l.is_unshared()).count();
        self.sweep_at = (2 * in_use).max(SWEEP_FLOOR);
        let (spare, room) = (&mut self.spare, in_use.max(SWEEP_FLOOR));
        self.locks.retain(|_, lock| {
            let unshared = lock.is_unshared();
            if unshared && spare.len() < room {
                spare.push(lock.clone());
            }
            !unshared
        });
    }

    fn in_use(&self) -> usize {
        self.locks.values().map(|l| l.waiters() + l.holders()).sum()
    }
}

/// The aggregation gate of one fingerprint group: two counts and the group
/// waiting for the next gate round, which let every caller needing "the
/// group as aggregated by a round that **started after I arrived**" share
/// such a round, and the hold it ends with, instead of running one each.
///
/// Rounds are run by `Server::aggregate_group` under the group's write
/// lock, which reports every round's start and end here — whoever runs it
/// (a gate caller, rename's directory half, `rmdir`, the proactive loop,
/// recovery). A caller that [`arrive`](AggGate::arrive)s with no group
/// waiting leads one and queues for the write lock like any writer; callers
/// that arrive until it gets there follow it, parked on a oneshot and
/// holding nothing. At the front the leader [`close`](AggGate::close)s the
/// group and runs the next round — unless a round has completed that
/// started after the group's *latest* ticket, the number of rounds started
/// when its last member joined — then downgrades its hold to a read hold in
/// place and sends every follower a share of it: the reads a round serves read right behind
/// it, sharing one [`scan`](AggGate::scan) per listing, and nobody queues a second time.
///
/// Sharing is as strong as a round of one's own: an update is in its
/// holder's change-log before the dirty-set insert that completes it leaves
/// the holder, the appender lock is held until the switch mirrored that
/// insert, and a responder's snapshot excludes appenders — so a round
/// started after a caller arrived collects every update that completed
/// before the caller's request was issued, whoever runs the round. Sharers
/// inherit the round's outcome, an exhausted retry budget included, exactly
/// as the round's own caller does.
///
/// A follower never outlives its leader: a group that is dropped — with the
/// gate at `ServerInner::reset_volatile`, by a leader cancelled in the lock
/// queue, or by a leader whose round straddled a reset and so ended at a
/// gate that never saw it start, where it is ignored — drops its senders:
/// every follower's receive fails and it arrives again.
#[derive(Default)]
pub struct AggGate {
    /// Rounds started so far; a round's number is this count at its start.
    started: u64,
    /// The number of the last round that ran to its end.
    completed: u64,
    /// The group the next gate round serves, until its leader closes it.
    waiting: Option<Group>,
    /// The current hold's listing scans by directory: the readers waiting while one runs,
    /// `None` once done. The first is inline: a group is one directory but for collisions.
    scans: (Option<Scan>, Vec<Scan>),
}

type Scan = (DirId, Option<Vec<oneshot::Sender<()>>>);

struct Group {
    lead: Rc<()>,
    /// Rounds started when the latest member joined.
    ticket: u64,
    followers: Vec<oneshot::Sender<ClassGuard>>,
}

/// A leader's name for its group (an address, so no reset recycles it) and its ticket.
pub struct Lead(Rc<()>, u64);

/// What [`AggGate::arrive`] made of a caller.
pub enum Arrival {
    /// Nobody was waiting: queue for the write lock, then close the group.
    Lead(Lead),
    /// Joined the waiting group: its leader sends a share of its hold.
    Follow(oneshot::Receiver<ClassGuard>),
}

impl AggGate {
    /// A caller joins the waiting group, or opens it.
    pub fn arrive(&mut self) -> Arrival {
        let ticket = self.started;
        if let Some(group) = &mut self.waiting {
            let (tx, rx) = oneshot::channel();
            group.ticket = ticket;
            group.followers.push(tx);
            return Arrival::Follow(rx);
        }
        let lead = Rc::new(());
        self.waiting = Some(Group {
            lead: lead.clone(),
            ticket,
            followers: Vec::new(),
        });
        Arrival::Lead(Lead(lead, ticket))
    }

    /// Takes `lead`'s group out of the gate: its latest ticket and its
    /// followers. A group that a reset dropped leaves the leader its own
    /// ticket: every round the fresh counts count started after it was taken.
    pub fn close(&mut self, lead: &Lead) -> (u64, Vec<oneshot::Sender<ClassGuard>>) {
        match self.waiting.take_if(|g| Rc::ptr_eq(&g.lead, &lead.0)) {
            Some(group) => (group.ticket, group.followers),
            None => (lead.1, Vec::new()),
        }
    }

    /// True once a round that started after `ticket` was taken completed.
    pub fn served(&self, ticket: u64) -> bool {
        self.completed > ticket
    }

    /// Followers parked at the gate.
    pub fn followers(&self) -> usize {
        self.waiting.as_ref().map_or(0, |g| g.followers.len())
    }

    /// A round starts (its runner holds the group's write lock); returns the
    /// round's number for [`AggGate::round_completed`].
    pub fn round_started(&mut self) -> u64 {
        self.started += 1;
        self.started
    }

    /// Round `round` ran to its end and serves every caller that arrived
    /// before it started. A round this gate did not see start is ignored.
    pub fn round_completed(&mut self, round: u64) {
        if round == self.started {
            self.completed = round;
        }
    }

    /// True while a round that started at this gate has not ended.
    pub fn round_running(&self) -> bool {
        self.started > self.completed
    }

    /// A leader downgraded its write hold: the hold it starts scanned nothing.
    pub fn hold_started(&mut self) {
        self.scans = Default::default();
    }

    fn slot(&mut self, dir: DirId) -> Option<&mut Scan> {
        let (first, more) = &mut self.scans;
        first.iter_mut().chain(more).find(|(d, _)| *d == dir)
    }

    /// A reader of the hold needs `dir`'s listing. The first gets `None`: it scans and reports to
    /// [`AggGate::scan_ended`]. The rest get the scan's end — a failed receive if it was dropped.
    pub fn scan(&mut self, dir: DirId) -> Option<oneshot::Receiver<()>> {
        let Some((_, waiters)) = self.slot(dir) else {
            let moved = self.scans.0.replace((dir, Some(Vec::new())));
            self.scans.1.extend(moved);
            return None;
        };
        let (tx, rx) = oneshot::channel();
        match waiters {
            Some(waiters) => waiters.push(tx),
            None => drop(tx.send(())),
        }
        Some(rx)
    }

    /// The scan of `dir` in this hold is `done`, or gone with its reader.
    pub fn scan_ended(&mut self, dir: DirId, done: bool) {
        let running = |(d, w): &mut Scan| *d == dir && w.is_some();
        if !done {
            self.scans.0.take_if(running);
            self.scans.1.retain_mut(|scan| !running(scan));
        } else if let Some((_, waiters)) = self.slot(dir) {
            for waiter in waiters.take().into_iter().flatten() {
                let _ = waiter.send(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use switchfs_simnet::{Sim, SimDuration};

    #[test]
    fn same_key_returns_same_lock() {
        let sim = Sim::new(1);
        let mgr = LockManager::default();
        let key = MetaKey::new(DirId::ROOT, "a");
        let order = Rc::new(Cell::new(0u32));
        {
            let l = mgr.inode(&key);
            let order = order.clone();
            let h = sim.handle();
            sim.spawn(async move {
                let _g = l.write().await;
                h.sleep(SimDuration::micros(10)).await;
                order.set(1);
            });
        }
        {
            let l = mgr.inode(&key);
            let order = order.clone();
            sim.spawn(async move {
                let _g = l.write().await;
                assert_eq!(order.get(), 1, "second writer must wait for the first");
                order.set(2);
            });
        }
        sim.run();
        assert_eq!(order.get(), 2);
    }

    #[test]
    fn different_keys_do_not_conflict() {
        let sim = Sim::new(1);
        let mgr = LockManager::default();
        let done = Rc::new(Cell::new(0u32));
        for name in ["a", "b", "c"] {
            let l = mgr.inode(&MetaKey::new(DirId::ROOT, name));
            let h = sim.handle();
            let done = done.clone();
            sim.spawn(async move {
                let _g = l.write().await;
                h.sleep(SimDuration::micros(10)).await;
                done.set(done.get() + 1);
            });
        }
        let stats = sim.run();
        assert_eq!(done.get(), 3);
        // All three ran in parallel: total time is one critical section.
        assert_eq!(stats.end_time.as_micros(), 10);
    }

    fn key(i: usize) -> MetaKey {
        MetaKey::new(DirId::ROOT, format!("k{i}"))
    }

    /// Spawns a task that write-locks and releases keys `0..n`, one after
    /// another, 1 µs each.
    fn churn(sim: &Sim, mgr: &Rc<LockManager>, n: usize) {
        let (mgr, h) = (mgr.clone(), sim.handle());
        sim.spawn(async move {
            for i in 0..n {
                let _g = mgr.inode(&key(i)).write().await;
                h.sleep(SimDuration::micros(1)).await;
            }
        });
    }

    #[test]
    fn a_table_of_released_locks_stays_within_its_sweep_floor() {
        let sim = Sim::new(1);
        let mgr = Rc::new(LockManager::default());
        churn(&sim, &mgr, 10_000);
        sim.run();
        assert!(
            mgr.tabled() <= SWEEP_FLOOR,
            "{} locks tabled after 10,000 released keys",
            mgr.tabled()
        );
        assert_eq!(mgr.in_use(), 0);
    }

    #[test]
    fn a_handle_held_across_sweeps_keeps_its_lock() {
        let sim = Sim::new(1);
        let mgr = Rc::new(LockManager::default());
        let k = key(usize::MAX);
        let done = Rc::new(Cell::new(false));
        // The first task takes its handle at once, holds no guard while
        // 1,000 other keys churn through sweeps, then write-locks it.
        {
            let (l, h, done) = (mgr.inode(&k), sim.handle(), done.clone());
            sim.spawn(async move {
                h.sleep(SimDuration::micros(1_000)).await;
                let _g = l.write().await;
                h.sleep(SimDuration::micros(10)).await;
                done.set(true);
            });
        }
        churn(&sim, &mgr, 1_000);
        let (m, h, second) = (mgr.clone(), sim.handle(), done.clone());
        sim.spawn(async move {
            h.sleep(SimDuration::micros(1_001)).await;
            assert!(m.tabled() <= SWEEP_FLOOR, "the churn swept");
            let _g = m.inode(&k).write().await;
            assert!(second.get(), "the second writer must wait for the first");
        });
        let stats = sim.run();
        assert!(done.get());
        assert_eq!(stats.end_time.as_micros(), 1_010);
    }

    #[test]
    fn a_recycled_lock_starts_free() {
        for access in [Access::ClassA, Access::ClassB, Access::Exclusive] {
            let sim = Sim::new(1);
            let mgr = LockManager::default();
            // Fill the table with locks each last held in one of the three
            // classes while another class queued behind it.
            let h = sim.handle();
            for i in 0..SWEEP_FLOOR {
                let held = [Access::ClassA, Access::ClassB, Access::Exclusive][i % 3];
                let queued = [Access::ClassB, Access::Exclusive, Access::ClassA][i % 3];
                let (first, second, h) = (mgr.inode(&key(i)), mgr.inode(&key(i)), h.clone());
                sim.spawn(async move {
                    let _g = first.acquire(held).await;
                    h.sleep(SimDuration::micros(1)).await;
                });
                sim.spawn(async move { drop(second.acquire(queued).await) });
            }
            sim.run();
            assert_eq!(mgr.in_use(), 0);
            // The next miss sweeps, and takes a lock the sweep kept.
            let lock = mgr.inode(&key(SWEEP_FLOOR));
            assert_eq!(mgr.inodes.borrow().spare.len(), SWEEP_FLOOR - 1);
            let (h, at) = (sim.handle(), Rc::new(Cell::new(None)));
            let (start, got) = (h.now(), at.clone());
            sim.spawn(async move {
                let _g = lock.acquire(access).await;
                got.set(Some(h.now()));
            });
            sim.run();
            assert_eq!(at.get(), Some(start), "{access:?} is granted at once");
        }
    }

    #[test]
    fn changelog_and_fp_group_locks_are_distinct_namespaces() {
        let mgr = LockManager::default();
        let dir = DirId::generate(switchfs_proto::ServerId(0), 1);
        let fp = Fingerprint::of_dir(&DirId::ROOT, "x");
        let a = mgr.changelog(&dir);
        let b = mgr.fp_group(fp);
        // Locking one must not affect the other.
        let sim = Sim::new(1);
        sim.spawn(async move {
            let _ga = a.acquire(Access::Exclusive).await;
            let _gb = b.write().await;
        });
        let stats = sim.run();
        assert_eq!(stats.tasks_pending, 0);
    }
}
