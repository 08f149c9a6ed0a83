//! A FIFO-fair counting semaphore.
//!
//! The semaphore underlies the [`crate::cpu::CpuPool`] core model (N permits
//! = N cores) and is also used by clients to bound the number of in-flight
//! requests, mirroring the "up to 512 concurrent requests" load generator of
//! the paper's evaluation (§7.2.1).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Waiter {
    need: usize,
    granted: Rc<Cell<bool>>,
    waker: Option<Waker>,
}

struct Inner {
    permits: usize,
    waiters: VecDeque<Waiter>,
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
                waiters: VecDeque::new(),
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
            granted: None,
        }
    }

    /// Number of currently available permits.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Adds `n` permits, waking waiters that can now proceed. The common
    /// single-waiter hand-off stays alloc-free; only a multi-waiter wake
    /// spills into a vector.
    pub fn release(&self, n: usize) {
        let mut first: Option<Waker> = None;
        let mut rest: Vec<Waker> = Vec::new();
        {
            let mut inner = self.inner.borrow_mut();
            inner.permits += n;
            while let Some(front) = inner.waiters.front() {
                if front.need > inner.permits {
                    break;
                }
                let mut w = inner.waiters.pop_front().expect("front exists");
                inner.permits -= w.need;
                w.granted.set(true);
                if let Some(wk) = w.waker.take() {
                    if first.is_none() {
                        first = Some(wk);
                    } else {
                        rest.push(wk);
                    }
                }
            }
        }
        if let Some(w) = first {
            w.wake();
        }
        for w in rest {
            w.wake();
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    semaphore: Semaphore,
    need: usize,
    granted: Option<Rc<Cell<bool>>>,
}

impl Future for Acquire {
    type Output = SemaphorePermit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(granted) = self.granted.clone() {
            if granted.get() {
                self.granted = None;
                return Poll::Ready(SemaphorePermit {
                    semaphore: self.semaphore.clone(),
                    count: self.need,
                });
            }
            let mut inner = self.semaphore.inner.borrow_mut();
            if let Some(w) = inner
                .waiters
                .iter_mut()
                .find(|w| Rc::ptr_eq(&w.granted, &granted))
            {
                w.waker = Some(cx.waker().clone());
            }
            return Poll::Pending;
        }
        let mut inner = self.semaphore.inner.borrow_mut();
        if inner.waiters.is_empty() && inner.permits >= self.need {
            inner.permits -= self.need;
            drop(inner);
            return Poll::Ready(SemaphorePermit {
                semaphore: self.semaphore.clone(),
                count: self.need,
            });
        }
        let granted = Rc::new(Cell::new(false));
        inner.waiters.push_back(Waiter {
            need: self.need,
            granted: granted.clone(),
            waker: Some(cx.waker().clone()),
        });
        drop(inner);
        self.granted = Some(granted);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(granted) = &self.granted {
            if granted.get() {
                self.semaphore.release(self.need);
            } else {
                let mut inner = self.semaphore.inner.borrow_mut();
                inner.waiters.retain(|w| !Rc::ptr_eq(&w.granted, granted));
            }
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
    use crate::executor::Sim;
    use crate::time::{SimDuration, SimTime};

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
}
