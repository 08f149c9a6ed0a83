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
//! Locks are created lazily and kept forever; the number of distinct keys a
//! single simulated server touches is bounded by the experiment size.

use std::cell::RefCell;
use std::rc::Rc;

use switchfs_proto::{DirId, Fingerprint, MetaKey};
pub use switchfs_simnet::sync::Access;
use switchfs_simnet::sync::{oneshot, ClassGuard, SimClassLock};
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
