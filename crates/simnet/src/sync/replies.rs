//! A table of replies awaited by key.
//!
//! A node that sends requests and waits for their answers keys each wait by
//! something the answer echoes (a client's operation sequence, a server's
//! request token). [`Replies`] holds those waits: the node's receive path
//! [`complete`](Replies::complete)s a key with its answer, and the waiter
//! reads it with [`poll_reply`](Replies::poll_reply). Once its maps have
//! grown to the node's window of requests in flight, a wait allocates
//! nothing, where a channel per wait would allocate once per transmission.
//!
//! The table lives inside its node's state (a `RefCell`), so a wait reaches
//! it through a closure: [`Wait`] registers its key when made and forgets it
//! when dropped, answered or not, so a table holds exactly the waits in
//! progress and the answers not yet read.

use std::cell::RefMut;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::FxHashMap;

/// Waits keyed by `u64`, and the answers that completed them. A key's wait
/// is registered (pending, with the waker of its last poll), answered (its
/// answer stored until read) or gone (neither). Dropping the table wakes
/// every registered waiter, and a waiter that then polls a fresh table reads
/// "gone": a node's crash ends its waits at once, not at their timers.
pub struct Replies<T> {
    waiting: FxHashMap<u64, Option<Waker>>,
    /// Kept apart from `waiting`: an answer inline in every wait's slot
    /// would size each slot for the largest answer.
    answers: FxHashMap<u64, T>,
}

impl<T> Default for Replies<T> {
    fn default() -> Self {
        Replies {
            waiting: FxHashMap::default(),
            answers: FxHashMap::default(),
        }
    }
}

impl<T> Replies<T> {
    /// Registers a wait under `key`. A key registered again (the next copy
    /// of a request whose previous wait ended) is answered by whichever
    /// answer under it comes first, the earlier copy's included.
    pub fn register(&mut self, key: u64) {
        self.waiting.insert(key, None);
    }

    /// Answers the wait under `key` and wakes its waiter. An answer for a key
    /// with no registered wait (a duplicate, or one arriving after its wait
    /// ended) is dropped. Returns whether a wait took it.
    pub fn complete(&mut self, key: u64, answer: T) -> bool {
        let Some(waker) = self.waiting.remove(&key) else {
            return false;
        };
        self.answers.insert(key, answer);
        if let Some(waker) = waker {
            waker.wake();
        }
        true
    }

    /// Ends the wait under `key`, dropping its answer if one came.
    pub fn forget(&mut self, key: u64) {
        self.waiting.remove(&key);
        self.answers.remove(&key);
    }

    /// Polls the wait under `key`: `Ready(Some)` with its answer (which
    /// leaves the table), `Pending` while registered, `Ready(None)` once
    /// gone.
    pub fn poll_reply(&mut self, key: u64, cx: &mut Context<'_>) -> Poll<Option<T>> {
        if let Some(answer) = self.answers.remove(&key) {
            return Poll::Ready(Some(answer));
        }
        match self.waiting.get_mut(&key) {
            Some(waker) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
            None => Poll::Ready(None),
        }
    }

    /// Waits registered or answered and not yet read.
    pub fn len(&self) -> usize {
        self.waiting.len() + self.answers.len()
    }

    /// True when the table holds no wait and no answer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Replies<T> {
    fn drop(&mut self) {
        for waker in self.waiting.values_mut().filter_map(Option::take) {
            waker.wake();
        }
    }
}

/// One wait on a [`Replies`] table that `table` borrows: registered when
/// made, forgotten when dropped. Resolves to the answer, or to `None` once
/// the key is gone (the table was replaced).
pub struct Wait<'a, T, F: Fn() -> RefMut<'a, Replies<T>>> {
    table: F,
    key: u64,
    answer: PhantomData<&'a T>,
}

impl<'a, T, F: Fn() -> RefMut<'a, Replies<T>>> Wait<'a, T, F> {
    /// Registers a wait under `key` in the table `table` borrows.
    pub fn new(table: F, key: u64) -> Self {
        table().register(key);
        Wait {
            table,
            key,
            answer: PhantomData,
        }
    }
}

impl<'a, T, F: Fn() -> RefMut<'a, Replies<T>>> Future for Wait<'a, T, F> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        (self.table)().poll_reply(self.key, cx)
    }
}

impl<'a, T, F: Fn() -> RefMut<'a, Replies<T>>> Drop for Wait<'a, T, F> {
    fn drop(&mut self) {
        (self.table)().forget(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use std::sync::Arc;
    use std::task::Wake;

    /// A waker that counts its wakes.
    #[derive(Default)]
    struct Count(std::sync::atomic::AtomicU32);

    impl Wake for Count {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Count {
        fn wakes(&self) -> u32 {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    fn poll<F: Future>(fut: Pin<&mut F>, count: &Arc<Count>) -> Poll<F::Output> {
        let waker = Waker::from(Arc::clone(count));
        fut.poll(&mut Context::from_waker(&waker))
    }

    #[test]
    fn an_answer_completes_its_wait_once_and_a_second_answer_is_dropped() {
        let table = RefCell::new(Replies::default());
        let count = Arc::new(Count::default());
        let mut wait = Box::pin(Wait::new(|| table.borrow_mut(), 7));
        assert_eq!(poll(wait.as_mut(), &count), Poll::Pending);
        assert!(table.borrow_mut().complete(7, "first"));
        assert!(!table.borrow_mut().complete(7, "second"));
        assert_eq!(count.wakes(), 1);
        assert_eq!(poll(wait.as_mut(), &count), Poll::Ready(Some("first")));
        drop(wait);
        assert!(table.borrow().is_empty());
    }

    #[test]
    fn a_late_answer_to_an_earlier_copy_completes_the_next_copys_wait() {
        let table = RefCell::new(Replies::default());
        let count = Arc::new(Count::default());
        let mut first = Box::pin(Wait::new(|| table.borrow_mut(), 3));
        assert_eq!(poll(first.as_mut(), &count), Poll::Pending);
        // The first copy's wait expires unanswered.
        drop(first);
        assert!(table.borrow().is_empty());
        let mut second = Box::pin(Wait::new(|| table.borrow_mut(), 3));
        assert_eq!(poll(second.as_mut(), &count), Poll::Pending);
        // The answer to the first copy arrives now, under the same key.
        assert!(table.borrow_mut().complete(3, 30));
        assert_eq!(poll(second.as_mut(), &count), Poll::Ready(Some(30)));
    }

    #[test]
    fn after_forget_a_late_answer_leaves_nothing_in_either_map() {
        let mut table = Replies::default();
        table.register(5);
        table.forget(5);
        assert!(!table.complete(5, ()));
        assert!(table.waiting.is_empty() && table.answers.is_empty());
        // An answer that came but was never read goes too.
        table.register(6);
        assert!(table.complete(6, ()));
        table.forget(6);
        assert!(table.waiting.is_empty() && table.answers.is_empty());
    }

    #[test]
    fn dropping_the_table_wakes_every_waiter_and_each_then_reads_gone() {
        let table = RefCell::new(Replies::<u32>::default());
        let counts: Vec<_> = (0..3).map(|_| Arc::new(Count::default())).collect();
        let mut waits: Vec<_> = (0..3)
            .map(|key| Box::pin(Wait::new(|| table.borrow_mut(), key)))
            .collect();
        for (wait, count) in waits.iter_mut().zip(&counts) {
            assert_eq!(poll(wait.as_mut(), count), Poll::Pending);
        }
        // A crash replaces the table: the old one's drop wakes each waiter.
        *table.borrow_mut() = Replies::default();
        for (wait, count) in waits.iter_mut().zip(&counts) {
            assert_eq!(count.wakes(), 1);
            assert_eq!(poll(wait.as_mut(), count), Poll::Ready(None));
        }
    }

    #[test]
    fn a_wait_dropped_before_its_answer_leaves_no_entry() {
        let table = RefCell::new(Replies::default());
        let count = Arc::new(Count::default());
        let mut wait = Box::pin(Wait::new(|| table.borrow_mut(), 1));
        assert_eq!(poll(wait.as_mut(), &count), Poll::Pending);
        assert_eq!(table.borrow().len(), 1);
        drop(wait);
        assert_eq!(table.borrow().len(), 0);
        // Its late answer is dropped, and wakes nobody.
        assert!(!table.borrow_mut().complete(1, ()));
        assert_eq!((table.borrow().len(), count.wakes()), (0, 0));
    }

    #[test]
    fn a_wait_in_a_task_is_woken_by_its_answer() {
        let sim = crate::Sim::new(1);
        let h = sim.handle();
        let table = Rc::new(RefCell::new(Replies::default()));
        let got = Rc::new(Cell::new(None));
        sim.spawn({
            let (table, got) = (table.clone(), got.clone());
            async move {
                got.set(Wait::new(|| table.borrow_mut(), 9).await);
            }
        });
        sim.spawn({
            let table = table.clone();
            async move {
                h.sleep(crate::SimDuration::micros(2)).await;
                table.borrow_mut().complete(9, 90);
            }
        });
        sim.run();
        assert_eq!(got.get(), Some(90));
        assert!(table.borrow().is_empty());
    }
}
