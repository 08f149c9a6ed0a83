//! A task notification primitive, similar in spirit to `tokio::sync::Notify`.
//!
//! Used by closed-loop load drivers (`benchmark/`) to park an item until
//! the operation it depends on has completed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

#[derive(Default)]
struct Inner {
    /// Permits stored by `notify_one` calls that arrived before any waiter.
    stored_permits: usize,
    waiters: VecDeque<(u64, Option<Waker>, Rc<std::cell::Cell<bool>>)>,
    next_id: u64,
}

/// A notification primitive: tasks wait for a signal delivered by
/// [`Notify::notify_one`].
#[derive(Clone, Default)]
pub struct Notify {
    inner: Rc<RefCell<Inner>>,
}

impl Notify {
    /// Creates a new notifier with no stored permits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Waits until notified.
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
            id: None,
        }
    }

    /// Wakes a single waiter, or stores a permit if none is waiting.
    pub fn notify_one(&self) {
        let waker = {
            let mut inner = self.inner.borrow_mut();
            if let Some((_, waker, flag)) = inner.waiters.pop_front() {
                flag.set(true);
                waker
            } else {
                inner.stored_permits += 1;
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
    id: Option<(u64, Rc<std::cell::Cell<bool>>)>,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if let Some((id, flag)) = self.id.clone() {
            if flag.get() {
                self.id = None;
                return Poll::Ready(());
            }
            let mut inner = self.notify.inner.borrow_mut();
            if let Some(w) = inner.waiters.iter_mut().find(|(wid, _, _)| *wid == id) {
                w.1 = Some(cx.waker().clone());
            }
            return Poll::Pending;
        }
        let mut inner = self.notify.inner.borrow_mut();
        if inner.stored_permits > 0 {
            inner.stored_permits -= 1;
            return Poll::Ready(());
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let flag = Rc::new(std::cell::Cell::new(false));
        inner
            .waiters
            .push_back((id, Some(cx.waker().clone()), flag.clone()));
        drop(inner);
        self.id = Some((id, flag));
        Poll::Pending
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        if let Some((id, flag)) = &self.id {
            if !flag.get() {
                let mut inner = self.notify.inner.borrow_mut();
                inner.waiters.retain(|(wid, _, _)| wid != id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::{SimDuration, SimTime};
    use std::cell::Cell;

    #[test]
    fn notify_one_wakes_single_waiter() {
        let sim = Sim::new(1);
        let notify = Notify::new();
        let woken = Rc::new(Cell::new(0u32));
        for _ in 0..2 {
            let notify = notify.clone();
            let woken = woken.clone();
            sim.spawn(async move {
                notify.notified().await;
                woken.set(woken.get() + 1);
            });
        }
        {
            let notify = notify.clone();
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(SimDuration::micros(1)).await;
                notify.notify_one();
            });
        }
        sim.run_until(SimTime::from_micros(10));
        assert_eq!(woken.get(), 1);
        notify.notify_one();
        sim.run();
        assert_eq!(woken.get(), 2);
    }

    #[test]
    fn stored_permit_wakes_future_waiter() {
        let sim = Sim::new(1);
        let notify = Notify::new();
        notify.notify_one();
        let woken = Rc::new(Cell::new(false));
        let w = woken.clone();
        let notify2 = notify.clone();
        sim.spawn(async move {
            notify2.notified().await;
            w.set(true);
        });
        sim.run();
        assert!(woken.get());
    }
}
