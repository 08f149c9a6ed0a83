//! A FIFO-fair counting semaphore.
//!
//! The semaphore underlies the [`crate::cpu::CpuPool`] core model (N permits
//! = N cores) and is also used by clients to bound the number of in-flight
//! requests, mirroring the "up to 512 concurrent requests" load generator of
//! the paper's evaluation (§7.2.1).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use super::WaitQueue;

struct Inner {
    permits: usize,
    /// Each waiter wants a number of permits.
    queue: WaitQueue<usize>,
}

impl Inner {
    /// Grants the front waiter its permits if they are free, and returns
    /// its waker.
    fn grant_front(&mut self) -> Option<Waker> {
        if self.queue.front()? > self.permits {
            return None;
        }
        let (need, waker) = self.queue.grant_front();
        self.permits -= need;
        Some(waker)
    }
}

/// An asynchronous, FIFO-fair counting semaphore.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<Inner>>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` available permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(Inner {
                permits,
                queue: WaitQueue::default(),
            })),
        }
    }

    /// Acquires one permit, waiting in FIFO order.
    pub fn acquire(&self) -> Acquire {
        self.acquire_many(1)
    }

    /// Acquires `n` permits atomically, waiting in FIFO order.
    pub fn acquire_many(&self, n: usize) -> Acquire {
        Acquire {
            semaphore: self.clone(),
            need: n,
            ticket: None,
        }
    }

    /// Number of currently available permits.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Adds `n` permits, waking, in queue order, the waiters that can now
    /// proceed.
    pub fn release(&self, n: usize) {
        self.inner.borrow_mut().permits += n;
        // One grant per borrow: each waker runs outside it.
        loop {
            let granted = self.inner.borrow_mut().grant_front();
            match granted {
                Some(waker) => waker.wake(),
                None => break,
            }
        }
    }
}

/// Future returned by [`Semaphore::acquire`]. Once queued it holds a
/// ticket; dropping it before it resolves cancels the acquire, or hands on
/// the permits it was granted.
pub struct Acquire {
    semaphore: Semaphore,
    need: usize,
    ticket: Option<u64>,
}

impl Future for Acquire {
    type Output = SemaphorePermit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(ticket) = self.ticket {
            let mut inner = self.semaphore.inner.borrow_mut();
            if inner.queue.granted(ticket) {
                drop(inner);
                self.ticket = None;
                return Poll::Ready(SemaphorePermit {
                    semaphore: self.semaphore.clone(),
                    count: self.need,
                });
            }
            inner.queue.set_waker(ticket, cx.waker());
            return Poll::Pending;
        }
        let mut inner = self.semaphore.inner.borrow_mut();
        if inner.queue.is_empty() && inner.permits >= self.need {
            inner.permits -= self.need;
            drop(inner);
            return Poll::Ready(SemaphorePermit {
                semaphore: self.semaphore.clone(),
                count: self.need,
            });
        }
        let ticket = inner.queue.push(self.need, cx.waker());
        drop(inner);
        self.ticket = Some(ticket);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else {
            return;
        };
        let mut inner = self.semaphore.inner.borrow_mut();
        if inner.queue.granted(ticket) {
            drop(inner);
            self.semaphore.release(self.need);
        } else {
            inner.queue.cancel(ticket);
        }
    }
}

/// RAII permit returning its permits to the semaphore on drop.
pub struct SemaphorePermit {
    semaphore: Semaphore,
    count: usize,
}

impl Drop for SemaphorePermit {
    fn drop(&mut self) {
        if self.count > 0 {
            self.semaphore.release(self.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{timeout, Sim};
    use crate::time::{SimDuration, SimTime};
    use std::cell::Cell;

    #[test]
    fn limits_concurrency() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        let active = Rc::new(Cell::new(0usize));
        let max_active = Rc::new(Cell::new(0usize));
        for _ in 0..6 {
            let sem = sem.clone();
            let h = sim.handle();
            let active = active.clone();
            let max_active = max_active.clone();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                active.set(active.get() + 1);
                max_active.set(max_active.get().max(active.get()));
                h.sleep(SimDuration::micros(10)).await;
                active.set(active.get() - 1);
            });
        }
        sim.run();
        assert_eq!(max_active.get(), 2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn serialization_takes_expected_time() {
        // Six 10us jobs on two permits should take 30us of virtual time.
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        for _ in 0..6 {
            let sem = sem.clone();
            let h = sim.handle();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                h.sleep(SimDuration::micros(10)).await;
            });
        }
        let stats = sim.run();
        assert_eq!(stats.end_time, SimTime::from_micros(30));
    }

    #[test]
    fn acquire_many_waits_for_batch() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(3);
        let sem2 = sem.clone();
        let h = sim.handle();
        sim.spawn(async move {
            let p1 = sem2.acquire_many(2).await;
            assert_eq!(sem2.available(), 1);
            // A request for 3 must wait until the first permit batch returns.
            let want3 = sem2.acquire_many(3);
            h.spawn({
                let h = h.clone();
                async move {
                    h.sleep(SimDuration::micros(5)).await;
                    drop(p1);
                }
            });
            let _p2 = want3.await;
            assert!(h.now() >= SimTime::from_micros(5));
        });
        sim.run();
        assert_eq!(sem.available(), 3);
    }

    #[test]
    fn a_dropped_acquire_neither_keeps_nor_leaks_a_permit() {
        // Dropped while queued, and dropped after its grant but before it
        // was polled again: either way the permit goes on to the acquire
        // queued behind it.
        for granted in [false, true] {
            let sim = Sim::new(1);
            let sem = Semaphore::new(1);
            let (s, h) = (sem.clone(), sim.handle());
            let served = Rc::new(Cell::new(false));
            let served2 = served.clone();
            sim.spawn(async move {
                let held = s.acquire().await;
                let mut queued = Box::pin(s.acquire());
                let mut behind = Box::pin(s.acquire());
                for acquire in [queued.as_mut(), behind.as_mut()] {
                    let got = timeout(&h, SimDuration::micros(1), acquire).await;
                    assert!(got.is_none(), "the permit is held");
                }
                if granted {
                    drop(held);
                    assert_eq!(s.available(), 0, "the permit is the queued acquire's");
                    drop(queued);
                } else {
                    drop(queued);
                    drop(held);
                }
                assert_eq!(s.available(), 0, "the permit is the acquire behind's");
                drop(behind.await);
                served2.set(true);
            });
            sim.run();
            assert!(served.get(), "granted: {granted}");
            assert_eq!(sem.available(), 1, "granted: {granted}");
        }
    }
}
