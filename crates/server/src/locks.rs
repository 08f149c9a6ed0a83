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
//!   its discard. The lock is FIFO-fair across the classes. The synchronous
//!   baselines take it exclusively: serializing a directory's updates is
//!   what they model;
//! * **fingerprint-group locks** — per fingerprint; write-locked by whoever
//!   applies updates to a directory of the group, so that directory reads
//!   of any directory in the group wait for the apply to finish (§5.2.2).
//!   An aggregation round runs under the write lock, so a group has at most
//!   one round at a time. Callers that only need the group *aggregated*
//!   (scattered directory reads, a directory-source rename before it
//!   migrates the content) take the write lock through
//!   `Server::aggregated`, which consults the group's [`AggGate`]: a caller
//!   that reaches the front of the queue after a round that started after
//!   it arrived has completed skips its own. Rounds that run for another
//!   reason (rename's directory half, `rmdir`, the proactive loop, recovery)
//!   serve the callers queued behind them all the same.
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
//! The gate adds no lock and no edge to the order: its callers take the
//! group's write lock where they took it before, and a directory read that
//! another caller's round served releases it *before* queueing for the read
//! lock — it never waits for one mode while holding the other.
//!
//! Both appliers log the inode effect and the entry effects of one update
//! in one WAL record (`docs/persist-order.md`), and a directory's size is
//! read off the entry list when a reply is built, so no interleaving of the
//! two can make `statdir` disagree with `readdir`.
//!
//! Locks are created lazily and kept forever; the number of distinct keys a
//! single simulated server touches is bounded by the experiment size.

use std::cell::RefCell;
use std::rc::Rc;

use switchfs_proto::{DirId, Fingerprint, MetaKey};
pub use switchfs_simnet::sync::Access;
use switchfs_simnet::sync::SimClassLock;
use switchfs_simnet::FxHashMap;

/// Change-log lock class of the operations appending deferred updates.
pub const APPENDER: Access = Access::ClassA;
/// Change-log lock class of the handlers answering an aggregation request.
pub const RESPONDER: Access = Access::ClassB;

/// Lazily-created named locks.
#[derive(Clone, Default)]
pub struct LockManager {
    inodes: Rc<RefCell<FxHashMap<MetaKey, SimClassLock>>>,
    changelogs: Rc<RefCell<FxHashMap<DirId, SimClassLock>>>,
    fp_groups: Rc<RefCell<FxHashMap<u64, SimClassLock>>>,
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lock guarding the inode stored under `key`.
    pub fn inode(&self, key: &MetaKey) -> SimClassLock {
        let mut map = self.inodes.borrow_mut();
        // Look up by reference first: the common hit path must not clone
        // the key just to satisfy the entry API.
        if let Some(l) = map.get(key) {
            return l.clone();
        }
        let lock = SimClassLock::new();
        map.insert(key.clone(), lock.clone());
        lock
    }

    /// The lock guarding the change-log of directory `dir`.
    pub fn changelog(&self, dir: &DirId) -> SimClassLock {
        let mut map = self.changelogs.borrow_mut();
        map.entry(*dir).or_default().clone()
    }

    /// The lock guarding reads and aggregations of a fingerprint group.
    pub fn fp_group(&self, fp: Fingerprint) -> SimClassLock {
        let mut map = self.fp_groups.borrow_mut();
        map.entry(fp.raw()).or_default().clone()
    }

    /// Tasks queued for or holding any fingerprint-group lock (used by
    /// tests).
    pub fn fp_group_waiters(&self) -> usize {
        let map = self.fp_groups.borrow();
        map.values().map(|l| l.waiters() + l.holders()).sum()
    }
}

/// The aggregation gate of one fingerprint group: two counts that let every
/// caller needing "the group as aggregated by a round that **started after
/// I arrived**" share such a round instead of running one each.
///
/// Rounds are run by `Server::aggregate_group` under the group's write
/// lock, which reports every round's start and end here — whoever runs it
/// (a gate caller, rename's directory half, `rmdir`, the proactive loop,
/// recovery). A caller takes a ticket on arrival — the number of rounds
/// started so far — queues for the write lock like any writer, and when it
/// reaches the front is [`served`](AggGate::served) if a round with a
/// higher number has completed meanwhile; otherwise it runs the next round
/// itself, which serves everyone who arrived before it started.
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
/// The counts are volatile (`ServerInner::reset_volatile` starts them
/// over). A ticket from before a reset is compared with the fresh counts:
/// every round they count started after the reset, hence after the ticket
/// was taken. A round that straddles the reset ends at a gate that never
/// saw it start, and is ignored there.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AggGate {
    /// Rounds started so far; a round's number is this count at its start.
    started: u64,
    /// The number of the last round that ran to its end.
    completed: u64,
}

impl AggGate {
    /// A caller's ticket: the number of rounds started before it arrived.
    pub fn arrive(&self) -> u64 {
        self.started
    }

    /// True once a round that started after `ticket` was taken completed.
    pub fn served(&self, ticket: u64) -> bool {
        self.completed > ticket
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use switchfs_simnet::{Sim, SimDuration};

    #[test]
    fn same_key_returns_same_lock() {
        let sim = Sim::new(1);
        let mgr = LockManager::new();
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
        let mgr = LockManager::new();
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

    #[test]
    fn changelog_and_fp_group_locks_are_distinct_namespaces() {
        let mgr = LockManager::new();
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
