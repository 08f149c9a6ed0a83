//! Simulation-aware synchronization primitives.
//!
//! All primitives are single-threaded (the simulation executor never runs
//! tasks in parallel) and FIFO-fair: waiters are granted the resource in the
//! order they started waiting, which keeps simulated queueing behaviour
//! faithful to the first-come-first-served service disciplines the SwitchFS
//! paper assumes for locks and CPU run queues.

pub mod classlock;
pub mod notify;
pub mod oneshot;
pub mod replies;
pub mod semaphore;

pub use classlock::{Access, ClassGuard, SimClassLock};
pub use notify::Notify;
pub use replies::{Replies, Wait};
pub use semaphore::{Semaphore, SemaphorePermit};

use std::collections::VecDeque;
use std::task::Waker;

/// The FIFO wait queue of [`Semaphore`] and [`SimClassLock`]. A waiter
/// wants a `T` (a number of permits, an access class) and holds the ticket
/// it drew when it queued. Both primitives grant only from the front, so
/// "granted" is one comparison with a watermark: a waiter needs no flag of
/// its own, and a grant pops it from the queue.
struct WaitQueue<T> {
    waiters: VecDeque<Waiter<T>>,
    next_ticket: u64,
    granted_below: u64,
}

struct Waiter<T> {
    ticket: u64,
    want: T,
    waker: Waker,
}

impl<T> Default for WaitQueue<T> {
    fn default() -> Self {
        WaitQueue {
            waiters: VecDeque::new(),
            next_ticket: 0,
            granted_below: 0,
        }
    }
}

impl<T: Copy> WaitQueue<T> {
    /// Queues a waiter at the back and returns its ticket.
    fn push(&mut self, want: T, waker: &Waker) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.waiters.push_back(Waiter {
            ticket,
            want,
            waker: waker.clone(),
        });
        ticket
    }

    /// True once the waiter holding `ticket` was granted. (A waiter that
    /// left the queue unserved never asks.)
    fn granted(&self, ticket: u64) -> bool {
        ticket < self.granted_below
    }

    /// Points a queued waiter's wake-up at `waker`.
    fn set_waker(&mut self, ticket: u64, waker: &Waker) {
        if let Ok(at) = self.waiters.binary_search_by_key(&ticket, |w| w.ticket) {
            self.waiters[at].waker.clone_from(waker);
        }
    }

    /// Takes a queued waiter out of the queue unserved.
    fn cancel(&mut self, ticket: u64) {
        self.waiters.retain(|w| w.ticket != ticket);
    }

    /// What the front waiter wants.
    fn front(&self) -> Option<T> {
        self.waiters.front().map(|w| w.want)
    }

    /// Grants the front waiter: takes it out of the queue and returns what
    /// it wanted and its waker.
    fn grant_front(&mut self) -> (T, Waker) {
        let w = self.waiters.pop_front().expect("a waiter to grant");
        self.granted_below = w.ticket + 1;
        (w.want, w.waker)
    }

    /// What every queued waiter wants, front first.
    fn wants(&self) -> impl Iterator<Item = T> + '_ {
        self.waiters.iter().map(|w| w.want)
    }

    fn len(&self) -> usize {
        self.waiters.len()
    }

    fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }
}
