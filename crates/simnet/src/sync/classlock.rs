//! A FIFO-fair two-class lock (group mutual exclusion): the one lock of the
//! simulation.
//!
//! Holders of the *same* class share the lock, the two classes exclude each
//! other, and [`Access::Exclusive`] excludes everyone including itself. A
//! reader–writer lock is the `{ClassA, Exclusive}` subset —
//! [`SimClassLock::read`] and [`SimClassLock::write`] — which is how the
//! metadata servers lock inodes and fingerprint groups (read locks for
//! `statdir` / `readdir`, write locks for updates, §5.2). A directory's
//! change-log uses both classes: the double-inode operations appending
//! deferred updates are one, the aggregation responders snapshotting the
//! log are the other — appends to one directory run in parallel, a snapshot
//! never sees a half-committed append, and neither side is a single-holder
//! critical section.
//!
//! Fairness is FIFO across classes: an acquire is granted immediately only
//! when nobody is queued, so a waiter of the other class blocks every later
//! arrival of the class that currently holds the lock (an append storm
//! cannot starve an aggregation, and vice versa). When the lock drains, the
//! queue is served from the front for as long as consecutive waiters are
//! compatible with each other. For readers and writers that is the usual
//! writer-fair rule: a waiting writer blocks later readers, and consecutive
//! queued readers are granted together.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use super::WaitQueue;

/// How an acquire wants to hold a [`SimClassLock`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Shared with other `ClassA` holders, excludes `ClassB`.
    ClassA,
    /// Shared with other `ClassB` holders, excludes `ClassA`.
    ClassB,
    /// Excludes every other holder.
    Exclusive,
}

struct Inner {
    holders: usize,
    /// The access the current holders share; meaningful while `holders > 0`.
    held: Access,
    /// Each waiter wants an access.
    queue: WaitQueue<Access>,
}

impl Inner {
    fn admits(&self, access: Access) -> bool {
        self.holders == 0 || (self.held == access && access != Access::Exclusive)
    }

    fn admit(&mut self, access: Access) {
        self.holders += 1;
        self.held = access;
    }

    /// Grants the lock to the front waiter if it is compatible with the
    /// current holders, and returns its waker.
    fn grant_front(&mut self) -> Option<Waker> {
        if !self.admits(self.queue.front()?) {
            return None;
        }
        let (access, waker) = self.queue.grant_front();
        self.admit(access);
        Some(waker)
    }
}

/// An asynchronous, FIFO-fair two-class lock. Clones share the lock.
#[derive(Clone)]
pub struct SimClassLock {
    inner: Rc<RefCell<Inner>>,
}

impl Default for SimClassLock {
    fn default() -> Self {
        Self::new()
    }
}

impl SimClassLock {
    /// Creates a new unlocked lock.
    pub fn new() -> Self {
        SimClassLock {
            inner: Rc::new(RefCell::new(Inner {
                holders: 0,
                held: Access::Exclusive,
                queue: WaitQueue::default(),
            })),
        }
    }

    /// Acquires the lock with the given access.
    pub fn acquire(&self, access: Access) -> ClassAcquire {
        ClassAcquire {
            lock: self.clone(),
            access,
            ticket: None,
        }
    }

    /// Acquires the lock shared with other readers ([`Access::ClassA`]).
    pub fn read(&self) -> ClassAcquire {
        self.acquire(Access::ClassA)
    }

    /// Acquires the lock alone ([`Access::Exclusive`]).
    pub fn write(&self) -> ClassAcquire {
        self.acquire(Access::Exclusive)
    }

    /// Number of tasks currently holding the lock.
    pub fn holders(&self) -> usize {
        self.inner.borrow().holders
    }

    /// Number of tasks currently waiting.
    pub fn waiters(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True while some task holds the lock with `access` or is queued for it
    /// with `access`.
    pub fn wanted_by(&self, access: Access) -> bool {
        let inner = self.inner.borrow();
        (inner.holders > 0 && inner.held == access) || inner.queue.wants().any(|a| a == access)
    }

    /// Runs `f` on the lock state, then grants the lock from the front of
    /// the queue for as long as the front is compatible with the holders,
    /// waking each waiter it grants outside the borrow (a woken task may
    /// touch the lock again).
    fn regrant(&self, f: impl FnOnce(&mut Inner)) {
        f(&mut self.inner.borrow_mut());
        loop {
            let granted = self.inner.borrow_mut().grant_front();
            match granted {
                Some(waker) => waker.wake(),
                None => break,
            }
        }
    }

    fn release(&self) {
        self.regrant(|inner| inner.holders -= 1);
    }
}

/// Future returned by [`SimClassLock::acquire`]. Once queued it holds a
/// ticket; dropping it before it resolves cancels the acquire, or hands on
/// the hold it was granted.
pub struct ClassAcquire {
    lock: SimClassLock,
    access: Access,
    ticket: Option<u64>,
}

impl Future for ClassAcquire {
    type Output = ClassGuard;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(ticket) = self.ticket {
            let mut inner = self.lock.inner.borrow_mut();
            if inner.queue.granted(ticket) {
                drop(inner);
                // Clear the ticket so dropping the finished future does not
                // release the lock a second time.
                self.ticket = None;
                return Poll::Ready(ClassGuard {
                    lock: self.lock.clone(),
                });
            }
            inner.queue.set_waker(ticket, cx.waker());
            return Poll::Pending;
        }
        let mut inner = self.lock.inner.borrow_mut();
        if inner.queue.is_empty() && inner.admits(self.access) {
            inner.admit(self.access);
            drop(inner);
            return Poll::Ready(ClassGuard {
                lock: self.lock.clone(),
            });
        }
        let ticket = inner.queue.push(self.access, cx.waker());
        drop(inner);
        self.ticket = Some(ticket);
        Poll::Pending
    }
}

impl Drop for ClassAcquire {
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else {
            return;
        };
        let granted = self.lock.inner.borrow().queue.granted(ticket);
        if granted {
            // Granted but never polled to completion: hand the lock on.
            self.lock.release();
        } else {
            // Leaving the queue can unblock the waiters that were behind
            // this one (they may be compatible with the current holders).
            self.lock.regrant(|inner| {
                inner.queue.cancel(ticket);
            });
        }
    }
}

/// RAII guard of a [`SimClassLock`]; releases on drop.
pub struct ClassGuard {
    lock: SimClassLock,
}

impl ClassGuard {
    /// Turns an exclusive hold into a read ([`Access::ClassA`]) hold in
    /// place — nothing queued gets in between — and admits the readers at
    /// the front of the queue. Panics on a hold that is not exclusive.
    pub fn downgrade(&mut self) {
        self.lock.regrant(|inner| {
            assert_eq!(inner.held, Access::Exclusive, "downgrade of a shared hold");
            inner.held = Access::ClassA;
        });
    }

    /// One more hold of this guard's class, for the holder to hand on: taken
    /// at once, whoever is queued. Panics on an exclusive hold.
    pub fn share(&self) -> ClassGuard {
        let mut inner = self.lock.inner.borrow_mut();
        assert_ne!(inner.held, Access::Exclusive, "share of an exclusive hold");
        inner.holders += 1;
        let lock = self.lock.clone();
        ClassGuard { lock }
    }
}

impl Drop for ClassGuard {
    fn drop(&mut self) {
        self.lock.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{timeout, Sim};
    use crate::time::{SimDuration, SimTime};

    /// How a test task asks for the lock: a class by name, or the
    /// reader–writer entry points.
    type Acquire = fn(&SimClassLock) -> ClassAcquire;

    fn class_a(lock: &SimClassLock) -> ClassAcquire {
        lock.acquire(Access::ClassA)
    }

    fn class_b(lock: &SimClassLock) -> ClassAcquire {
        lock.acquire(Access::ClassB)
    }

    fn exclusive(lock: &SimClassLock) -> ClassAcquire {
        lock.acquire(Access::Exclusive)
    }

    /// Spawns a task that arrives at `arrive` µs, acquires `lock` through
    /// `acquire`, holds it for `hold` µs and logs `(name, acquired_at_us)`.
    fn holder(
        sim: &Sim,
        lock: &SimClassLock,
        log: &Rc<RefCell<Vec<(&'static str, u64)>>>,
        name: &'static str,
        acquire: Acquire,
        arrive: u64,
        hold: u64,
    ) {
        let (lock, log, h) = (lock.clone(), log.clone(), sim.handle());
        sim.spawn(async move {
            h.sleep(SimDuration::micros(arrive)).await;
            let _g = acquire(&lock).await;
            log.borrow_mut().push((name, h.now().as_micros()));
            h.sleep(SimDuration::micros(hold)).await;
        });
    }

    fn acquired_at(log: &Rc<RefCell<Vec<(&'static str, u64)>>>, name: &str) -> u64 {
        let log = log.borrow();
        log.iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} never acquired"))
            .1
    }

    #[test]
    fn same_class_holders_overlap() {
        for class in [class_a, class_b, SimClassLock::read] {
            let sim = Sim::new(1);
            let lock = SimClassLock::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            holder(&sim, &lock, &log, "x", class, 0, 10);
            holder(&sim, &lock, &log, "y", class, 1, 10);
            holder(&sim, &lock, &log, "z", class, 2, 10);
            let stats = sim.run();
            assert_eq!(acquired_at(&log, "y"), 1);
            assert_eq!(acquired_at(&log, "z"), 2);
            // All three overlapped: the run is one hold long, not three.
            assert_eq!(stats.end_time, SimTime::from_micros(12));
            assert_eq!(lock.holders(), 0);
        }
    }

    #[test]
    fn the_two_classes_exclude_each_other() {
        let sim = Sim::new(1);
        let lock = SimClassLock::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        holder(&sim, &lock, &log, "a", class_a, 0, 10);
        holder(&sim, &lock, &log, "b", class_b, 1, 10);
        holder(&sim, &lock, &log, "a2", class_a, 12, 10);
        sim.run();
        assert_eq!(acquired_at(&log, "b"), 10);
        assert_eq!(acquired_at(&log, "a2"), 20);
    }

    #[test]
    fn exclusive_excludes_everyone_including_itself() {
        // Also as a reader–writer lock: write excludes write and read.
        let cases: [(Acquire, Acquire); 2] = [
            (exclusive, class_a),
            (SimClassLock::write, SimClassLock::read),
        ];
        for (alone, shared) in cases {
            let sim = Sim::new(1);
            let lock = SimClassLock::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            holder(&sim, &lock, &log, "x1", alone, 0, 10);
            holder(&sim, &lock, &log, "x2", alone, 1, 10);
            holder(&sim, &lock, &log, "a", shared, 2, 10);
            sim.run();
            assert_eq!(acquired_at(&log, "x2"), 10);
            assert_eq!(acquired_at(&log, "a"), 20);
        }
    }

    #[test]
    fn a_queued_waiter_of_the_other_class_blocks_later_arrivals() {
        // Also as a reader–writer lock: a queued writer blocks later
        // readers, and consecutive queued readers are granted together.
        let cases: [(Acquire, Acquire); 2] = [
            (class_a, class_b),
            (SimClassLock::read, SimClassLock::write),
        ];
        for (a, b) in cases {
            let sim = Sim::new(1);
            let lock = SimClassLock::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            holder(&sim, &lock, &log, "a1", a, 0, 10);
            holder(&sim, &lock, &log, "b", b, 1, 10);
            // Compatible with the holder, but `b` queued first: no
            // overtaking.
            holder(&sim, &lock, &log, "a2", a, 2, 10);
            holder(&sim, &lock, &log, "a3", a, 3, 10);
            sim.run();
            assert_eq!(acquired_at(&log, "b"), 10);
            // The two queued `a`s are granted together once `b` is done.
            assert_eq!(acquired_at(&log, "a2"), 20);
            assert_eq!(acquired_at(&log, "a3"), 20);
        }
    }

    #[test]
    fn wanted_by_sees_holders_and_waiters_of_a_class() {
        let sim = Sim::new(1);
        let lock = SimClassLock::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        holder(&sim, &lock, &log, "a", class_a, 1, 10);
        holder(&sim, &lock, &log, "b", class_b, 2, 10);
        let (probe, h) = (lock.clone(), sim.handle());
        sim.spawn(async move {
            let wanted = || [Access::ClassA, Access::ClassB].map(|c| probe.wanted_by(c));
            assert_eq!(wanted(), [false, false]);
            // `a` holds (1–11 µs), `b` is queued behind it.
            h.sleep(SimDuration::micros(5)).await;
            assert_eq!(wanted(), [true, true]);
            // `a` is gone, `b` holds (11–21 µs).
            h.sleep(SimDuration::micros(10)).await;
            assert_eq!(wanted(), [false, true]);
            h.sleep(SimDuration::micros(10)).await;
            assert_eq!(wanted(), [false, false]);
        });
        sim.run();
    }

    #[test]
    fn cancelling_a_waiting_acquire_unblocks_the_waiters_behind_it() {
        let sim = Sim::new(1);
        let lock = SimClassLock::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        holder(&sim, &lock, &log, "a1", class_a, 0, 20);
        // `b` gives up after 5 µs in the queue.
        {
            let (lock, h) = (lock.clone(), sim.handle());
            sim.spawn(async move {
                h.sleep(SimDuration::micros(1)).await;
                let got = timeout(&h, SimDuration::micros(5), lock.acquire(Access::ClassB)).await;
                assert!(got.is_none(), "the holder outlasts the timeout");
            });
        }
        holder(&sim, &lock, &log, "a2", class_a, 2, 10);
        sim.run();
        // `a2` shares with `a1` the moment `b` leaves the queue (t = 6 µs),
        // not when `a1` releases (t = 20 µs).
        assert_eq!(acquired_at(&log, "a2"), 6);
        assert_eq!(lock.holders(), 0);
        assert_eq!(lock.waiters(), 0);
    }

    #[test]
    fn downgrade_admits_the_queues_leading_readers_and_not_a_queued_writer() {
        let sim = Sim::new(1);
        let lock = SimClassLock::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        {
            let (lock, h) = (lock.clone(), sim.handle());
            sim.spawn(async move {
                let mut g = lock.write().await;
                h.sleep(SimDuration::micros(10)).await;
                g.downgrade();
                assert_eq!(lock.holders(), 3, "the downgraded hold and r1, r2");
                h.sleep(SimDuration::micros(10)).await;
            });
        }
        holder(&sim, &lock, &log, "r1", SimClassLock::read, 1, 5);
        holder(&sim, &lock, &log, "r2", SimClassLock::read, 2, 5);
        holder(&sim, &lock, &log, "w", SimClassLock::write, 3, 5);
        holder(&sim, &lock, &log, "r3", SimClassLock::read, 4, 5);
        sim.run();
        assert_eq!(acquired_at(&log, "r1"), 10);
        assert_eq!(acquired_at(&log, "r2"), 10);
        // The writer waits for the downgraded hold too; `r3` stays behind it.
        assert_eq!(acquired_at(&log, "w"), 20);
        assert_eq!(acquired_at(&log, "r3"), 25);
    }

    #[test]
    fn a_share_enters_ahead_of_a_queued_writer_who_runs_when_the_last_share_drops() {
        let sim = Sim::new(1);
        let lock = SimClassLock::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        holder(&sim, &lock, &log, "w", SimClassLock::write, 1, 5);
        let (l, h) = (lock.clone(), sim.handle());
        sim.spawn(async move {
            let g = l.read().await;
            h.sleep(SimDuration::micros(5)).await;
            assert_eq!(l.waiters(), 1, "the writer is queued");
            let (s1, s2) = (g.share(), g.share().share());
            assert_eq!(l.holders(), 3);
            drop(g);
            h.sleep(SimDuration::micros(5)).await;
            drop(s1);
            h.sleep(SimDuration::micros(5)).await;
            assert_eq!((l.holders(), l.waiters()), (1, 1));
            drop(s2);
        });
        sim.run();
        assert_eq!(acquired_at(&log, "w"), 15);
        assert_eq!(lock.holders(), 0);
    }

    #[test]
    #[should_panic(expected = "downgrade of a shared hold")]
    fn downgrade_of_a_shared_hold_panics() {
        let sim = Sim::new(1);
        let lock = SimClassLock::new();
        sim.spawn(async move { lock.read().await.downgrade() });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "share of an exclusive hold")]
    fn share_of_an_exclusive_hold_panics() {
        let sim = Sim::new(1);
        let lock = SimClassLock::new();
        sim.spawn(async move { drop(lock.write().await.share()) });
        sim.run();
    }

    #[test]
    fn dropping_a_granted_but_unpolled_acquire_releases_the_lock() {
        for acquire in [exclusive, SimClassLock::write] {
            let sim = Sim::new(1);
            let lock = SimClassLock::new();
            let first = lock.clone();
            let h = sim.handle();
            let l2 = lock.clone();
            sim.spawn(async move {
                let g = acquire(&first).await;
                // Queue a second acquire by polling it once, release the
                // first holder (which grants the queued one), then drop it
                // unpolled.
                let mut queued = Box::pin(acquire(&l2));
                assert!(timeout(&h, SimDuration::micros(1), queued.as_mut())
                    .await
                    .is_none());
                drop(g);
                assert_eq!(l2.holders(), 1);
                drop(queued);
                assert_eq!(l2.holders(), 0);
            });
            sim.run();
            assert_eq!(lock.holders(), 0);
        }
    }
}
