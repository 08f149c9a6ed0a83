//! The virtual-time task executor.
//!
//! A [`Sim`] owns a set of cooperative tasks, a ready queue, and a timer
//! wheel ordered by virtual time. There is one kind of task: a future in a
//! box. When a task finishes, its future is dropped but the box is kept, and
//! the next task whose future has the same type moves into it, so a spawn
//! allocates only when no finished task of its type left a box (at most
//! `TASK_BOX_POOL_CAP` are kept per type). Tasks run until they block
//! on a simulation primitive (a timer, a channel, a lock, a CPU core, a
//! network delivery); when no task is runnable, the clock jumps to the next
//! timer deadline. The executor is single-threaded and deterministic: task
//! wake-ups are processed in FIFO order and ties between timers are broken by
//! registration order. Dropping the [`Sim`] drops every task it still holds.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fxhash::FxHashMap;
use crate::sync::oneshot;
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task (unique over the simulation's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Upper bound on the finished tasks' boxes kept per future type (a memory
/// cap, not a correctness knob): a burst of many tasks of one type leaves
/// at most this many boxes behind.
pub(crate) const TASK_BOX_POOL_CAP: usize = 16;

/// The boxes kept for reuse, one list per future type `F`, each a
/// `Vec<Pin<Box<Option<F>>>>` of empty boxes. Looked up by type, never
/// iterated, so no order depends on the hash.
type BoxPools = FxHashMap<TypeId, Box<dyn Any>>;

/// What a task runs: its future, in a box that outlives it.
type Body = Pin<Box<dyn TaskBody>>;

/// A task's future in a reusable box: `Some` while the task lives, `None`
/// once it finished and the box waits in its type's pool.
trait TaskBody {
    /// Polls the future, as `Future::poll` would.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()>;

    /// Drops the future in place, leaving the box empty.
    fn clear(self: Pin<&mut Self>);

    /// Returns the (cleared) box to its type's pool, unless that is full.
    fn recycle(self: Pin<Box<Self>>, pools: &mut BoxPools);
}

impl<F: Future<Output = ()> + 'static> TaskBody for Option<F> {
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.as_pin_mut()
            .expect("a live task's box holds its future")
            .poll(cx)
    }

    fn clear(mut self: Pin<&mut Self>) {
        self.set(None);
    }

    fn recycle(self: Pin<Box<Self>>, pools: &mut BoxPools) {
        let pool = pool_of::<F>(pools);
        if pool.len() < TASK_BOX_POOL_CAP {
            pool.push(self);
        }
    }
}

/// The pool of empty boxes for futures of type `F`, made on first use.
fn pool_of<F: 'static>(pools: &mut BoxPools) -> &mut Vec<Pin<Box<Option<F>>>> {
    pools
        .entry(TypeId::of::<F>())
        .or_insert_with(|| Box::new(Vec::<Pin<Box<Option<F>>>>::new()))
        .downcast_mut()
        .expect("a pool is keyed by its boxes' type")
}

/// The queue of `(slot, task id)` pairs that have been woken and are ready
/// to be polled. The id disambiguates stale wake-ups after a slot is reused.
///
/// This is the only piece of executor state shared with [`Waker`]s, which
/// must be `Send + Sync`; everything else lives behind a single-threaded
/// `RefCell`.
type ReadyQueue = Arc<Mutex<VecDeque<(u32, u64)>>>;

struct TaskWaker {
    slot: u32,
    id: u64,
    ready: ReadyQueue,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready
            .lock()
            .expect("ready queue poisoned")
            .push_back((self.slot, self.id));
    }
}

/// One live task: its id and its body (taken out while being polled).
struct Task {
    id: u64,
    body: Option<Body>,
}

/// One slot of the task slab: the task living in it, if any, and the waker
/// of that task (or of the last one, once it finished). Every poll wakes
/// through a clone of the one waker, so polling allocates nothing. A
/// finished task's waker stays with its slot; the slot's next task takes it
/// over, re-stamped with the new id, unless a clone of it is still held
/// somewhere — then the next task gets a fresh one, and the stale clone's
/// wake is ignored by id.
struct Slot {
    task: Option<Task>,
    waker: Arc<TaskWaker>,
}

/// Shared waker slot of one registered timer. The owning [`Sleep`] clears
/// it on drop (cancellation) or completion; a cleared slot's heap entry
/// still advances the clock when popped but wakes nobody. Spent slots are
/// pooled and reused, so steady-state sleeping allocates nothing.
type TimerSlot = Rc<RefCell<Option<Waker>>>;

/// Upper bound on pooled timer slots (a memory cap, not a correctness knob).
const SLOT_POOL_CAP: usize = 4096;

struct TimerEntry {
    deadline: SimTime,
    seq: u64,
    slot: TimerSlot,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

struct SimState {
    now: SimTime,
    next_task: u64,
    next_timer_seq: u64,
    /// Slab of tasks; `free_slots` lists vacant indices for reuse.
    tasks: Vec<Slot>,
    free_slots: Vec<u32>,
    live_tasks: usize,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    /// Scratch buffer reused by `fire_timers_at`.
    fired_scratch: Vec<TimerSlot>,
    /// Pool of spent timer slots, recycled to keep sleeps alloc-free.
    slot_pool: Vec<TimerSlot>,
    /// Finished tasks' boxes, for the next tasks of their future types.
    box_pools: BoxPools,
    rng: StdRng,
    spawned_total: u64,
    polls_total: u64,
}

/// A deterministic virtual-time simulation.
///
/// Construct one per experiment or test, spawn the component tasks on it, and
/// call [`Sim::run`] (or [`Sim::run_until`]) to execute them to completion.
pub struct Sim {
    state: Rc<RefCell<SimState>>,
    ready: ReadyQueue,
}

/// A cheap, cloneable handle to a [`Sim`].
///
/// Handles are what component code holds: they can read the clock, spawn
/// tasks, sleep, and draw deterministic random numbers.
#[derive(Clone)]
pub struct SimHandle {
    state: Rc<RefCell<SimState>>,
    ready: ReadyQueue,
}

/// Statistics describing a completed [`Sim::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Virtual time at which the run stopped.
    pub end_time: SimTime,
    /// Total tasks spawned over the simulation's lifetime.
    pub tasks_spawned: u64,
    /// Total number of future polls performed.
    pub polls: u64,
    /// Tasks still blocked when the run stopped (deadlocked or waiting on a
    /// timer beyond the deadline).
    pub tasks_pending: usize,
}

impl Sim {
    /// Creates a new simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        let state = Rc::new(RefCell::new(SimState {
            now: SimTime::ZERO,
            next_task: 0,
            next_timer_seq: 0,
            tasks: Vec::new(),
            free_slots: Vec::new(),
            live_tasks: 0,
            timers: BinaryHeap::new(),
            fired_scratch: Vec::new(),
            slot_pool: Vec::new(),
            box_pools: BoxPools::default(),
            rng: StdRng::seed_from_u64(seed),
            spawned_total: 0,
            polls_total: 0,
        }));
        Sim {
            state,
            ready: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Returns a handle that component code can hold on to.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            state: self.state.clone(),
            ready: self.ready.clone(),
        }
    }

    /// Spawns a task onto the simulation.
    pub fn spawn<F>(&self, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        self.handle().spawn(fut)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.borrow().now
    }

    /// Runs the simulation until no task is runnable and no timer is pending.
    pub fn run(&self) -> RunStats {
        self.run_until(SimTime::MAX)
    }

    /// Runs the simulation until quiescence or until the clock would pass
    /// `deadline`, whichever comes first. The clock is left at
    /// `min(deadline, quiescence time)`.
    pub fn run_until(&self, deadline: SimTime) -> RunStats {
        loop {
            // Drain the ready queue, polling tasks in FIFO wake order.
            loop {
                let (slot, id) = {
                    let mut q = self.ready.lock().expect("ready queue poisoned");
                    match q.pop_front() {
                        Some(t) => t,
                        None => break,
                    }
                };
                self.poll_task(slot, id);
            }

            // No runnable task: advance the clock to the next timer.
            let next_deadline = {
                let state = self.state.borrow();
                state.timers.peek().map(|Reverse(e)| e.deadline)
            };
            match next_deadline {
                Some(t) if t <= deadline => {
                    self.fire_timers_at(t);
                }
                Some(_) | None => {
                    // Either quiescent or the next event is beyond the
                    // requested deadline.
                    let mut state = self.state.borrow_mut();
                    if deadline != SimTime::MAX && state.now < deadline && next_deadline.is_some() {
                        state.now = deadline;
                    }
                    return RunStats {
                        end_time: state.now,
                        tasks_spawned: state.spawned_total,
                        polls: state.polls_total,
                        tasks_pending: state.live_tasks,
                    };
                }
            }
        }
    }

    fn fire_timers_at(&self, t: SimTime) {
        let mut fired = {
            let mut state = self.state.borrow_mut();
            state.now = t;
            let mut fired = std::mem::take(&mut state.fired_scratch);
            while let Some(Reverse(entry)) = state.timers.peek() {
                if entry.deadline > t {
                    break;
                }
                let Reverse(entry) = state.timers.pop().expect("peeked");
                fired.push(entry.slot);
            }
            fired
        };
        for slot in &fired {
            // A cancelled timer (slot already cleared) advances the clock
            // but wakes nobody.
            let waker = slot.borrow_mut().take();
            if let Some(w) = waker {
                w.wake();
            }
        }
        {
            let mut state = self.state.borrow_mut();
            // Recycle slots whose `Sleep` has already gone away; the rest
            // are returned by the `Sleep`'s drop.
            for slot in fired.drain(..) {
                if Rc::strong_count(&slot) == 1 && state.slot_pool.len() < SLOT_POOL_CAP {
                    state.slot_pool.push(slot);
                }
            }
            state.fired_scratch = fired;
        }
    }

    fn poll_task(&self, slot: u32, id: u64) {
        // Take the body out of its slot before polling so that code inside
        // it can freely spawn new tasks (which mutates the slab); the slot
        // itself stays occupied, so it cannot be reused mid-poll.
        let (mut body, waker) = {
            let mut state = self.state.borrow_mut();
            let Some(Slot {
                task: Some(task),
                waker,
            }) = state.tasks.get_mut(slot as usize)
            else {
                return;
            };
            if task.id != id {
                // The slot was reused; this wake-up targets a dead task.
                return;
            }
            let Some(body) = task.body.take() else {
                // Already being polled higher up the stack; the wake-up that
                // queued us again will be re-observed through the waker.
                return;
            };
            let waker = Waker::from(Arc::clone(waker));
            state.polls_total += 1;
            (body, waker)
        };
        let mut cx = Context::from_waker(&waker);
        match body.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                // Dropping the future can re-enter the executor (a `Sleep`
                // returns its timer slot), so it happens before the borrow.
                body.as_mut().clear();
                let mut state = self.state.borrow_mut();
                state.tasks[slot as usize].task = None;
                state.free_slots.push(slot);
                state.live_tasks -= 1;
                body.recycle(&mut state.box_pools);
            }
            Poll::Pending => {
                let mut state = self.state.borrow_mut();
                if let Some(task) = state
                    .tasks
                    .get_mut(slot as usize)
                    .and_then(|s| s.task.as_mut())
                {
                    task.body = Some(body);
                }
            }
        }
    }
}

impl Drop for Sim {
    /// Drops the tasks, which would otherwise keep the simulation alive:
    /// nearly every task holds a [`SimHandle`]. Their futures are dropped
    /// after the borrow ends, since a future's drop can re-enter it.
    fn drop(&mut self) {
        let dropped = {
            let mut state = self.state.borrow_mut();
            state.free_slots.clear();
            state.live_tasks = 0;
            (
                std::mem::take(&mut state.tasks),
                std::mem::take(&mut state.box_pools),
            )
        };
        drop(dropped);
    }
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.borrow().now
    }

    /// Spawns a task; it becomes runnable immediately. The future moves
    /// into a box a finished task of the same type left behind, if one is
    /// pooled, and into a new box otherwise.
    pub fn spawn<F>(&self, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let (slot, id) = {
            let mut state = self.state.borrow_mut();
            let body: Body = match pool_of::<F>(&mut state.box_pools).pop() {
                Some(mut empty) => {
                    empty.set(Some(fut));
                    empty
                }
                None => Box::pin(Some(fut)),
            };
            let id = state.next_task;
            state.next_task += 1;
            state.spawned_total += 1;
            state.live_tasks += 1;
            let task = Some(Task {
                id,
                body: Some(body),
            });
            let fresh_waker = |slot| {
                Arc::new(TaskWaker {
                    slot,
                    id,
                    ready: self.ready.clone(),
                })
            };
            let slot = match state.free_slots.pop() {
                Some(slot) => {
                    let vacant = &mut state.tasks[slot as usize];
                    match Arc::get_mut(&mut vacant.waker) {
                        Some(waker) => waker.id = id,
                        None => vacant.waker = fresh_waker(slot),
                    }
                    vacant.task = task;
                    slot
                }
                None => {
                    let slot = state.tasks.len() as u32;
                    state.tasks.push(Slot {
                        task,
                        waker: fresh_waker(slot),
                    });
                    slot
                }
            };
            (slot, id)
        };
        self.ready
            .lock()
            .expect("ready queue poisoned")
            .push_back((slot, id));
        TaskId(id)
    }

    /// Spawns a task that produces a value and returns a handle to await it.
    pub fn spawn_with_result<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let (tx, rx) = oneshot::channel();
        self.spawn(async move {
            let value = fut.await;
            // The receiver may have been dropped; that is not an error.
            let _ = tx.send(value);
        });
        JoinHandle { rx }
    }

    /// Sleeps until the given instant.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline,
            slot: None,
        }
    }

    /// Sleeps for the given duration of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        let deadline = self.now() + d;
        self.sleep_until(deadline)
    }

    /// Yields once, allowing other ready tasks to run at the same instant.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Draws a uniformly distributed `u64` from the simulation RNG.
    pub fn rand_u64(&self) -> u64 {
        self.state.borrow_mut().rng.gen()
    }

    /// Registers a timer to be woken at `deadline` and returns its shared
    /// waker slot (drawn from the slot pool when possible). Used by
    /// simulation primitives that need timer semantics (e.g. retransmission
    /// timeouts).
    pub(crate) fn register_timer(&self, deadline: SimTime, waker: Waker) -> TimerSlot {
        let mut state = self.state.borrow_mut();
        let slot = match state.slot_pool.pop() {
            Some(slot) => {
                *slot.borrow_mut() = Some(waker);
                slot
            }
            None => Rc::new(RefCell::new(Some(waker))),
        };
        let seq = state.next_timer_seq;
        state.next_timer_seq += 1;
        state.timers.push(Reverse(TimerEntry {
            deadline,
            seq,
            slot: Rc::clone(&slot),
        }));
        slot
    }

    /// Returns a spent slot to the pool once nothing else references it.
    pub(crate) fn recycle_slot(&self, slot: TimerSlot) {
        if Rc::strong_count(&slot) == 1 {
            let mut state = self.state.borrow_mut();
            if state.slot_pool.len() < SLOT_POOL_CAP {
                state.slot_pool.push(slot);
            }
        }
    }
}

#[cfg(test)]
impl SimHandle {
    /// The number of empty boxes kept for futures of `like`'s type.
    pub(crate) fn pooled_boxes<F: 'static>(&self, _like: &F) -> usize {
        pool_of::<F>(&mut self.state.borrow_mut().box_pools).len()
    }
}

/// Future returned by [`SimHandle::sleep`] and friends.
///
/// Registers exactly one heap entry, however many times it is polled, and
/// cancels that entry when dropped (e.g. when a `timeout` races a response
/// that arrives first) — a completed RPC leaves no pending wake-up behind.
pub struct Sleep {
    handle: SimHandle,
    deadline: SimTime,
    slot: Option<TimerSlot>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.handle.now() >= self.deadline {
            if let Some(slot) = self.slot.take() {
                slot.borrow_mut().take();
                self.handle.recycle_slot(slot);
            }
            return Poll::Ready(());
        }
        match &self.slot {
            Some(slot) => {
                // Re-polled before the deadline: refresh the waker in place.
                *slot.borrow_mut() = Some(cx.waker().clone());
            }
            None => {
                self.slot = Some(
                    self.handle
                        .register_timer(self.deadline, cx.waker().clone()),
                );
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            // Lazy cancellation: clear the waker; the heap entry fires as a
            // no-op and the slot returns to the pool.
            slot.borrow_mut().take();
            self.handle.recycle_slot(slot);
        }
    }
}

/// Runs `fut` with a virtual-time deadline: returns `Some(output)` if the
/// future completes before `after` elapses, `None` otherwise.
///
/// Used to implement retransmission timeouts (§5.4.1): a sender waits for a
/// response with `timeout` and resends on `None`.
pub async fn timeout<F: Future>(
    handle: &SimHandle,
    after: SimDuration,
    fut: F,
) -> Option<F::Output> {
    // Stack-pinned: a timeout allocates nothing of its own.
    let mut sleep = std::pin::pin!(handle.sleep(after));
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = fut.as_mut().poll(cx) {
            return Poll::Ready(Some(v));
        }
        if sleep.as_mut().poll(cx).is_ready() {
            return Poll::Ready(None);
        }
        Poll::Pending
    })
    .await
}

/// Future returned by [`SimHandle::yield_now`]: pending exactly once, which
/// pushes the task to the back of the ready queue at the current instant.
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Handle to a value produced by a task spawned with
/// [`SimHandle::spawn_with_result`].
pub struct JoinHandle<T> {
    rx: oneshot::Receiver<T>,
}

impl<T: 'static> JoinHandle<T> {
    /// Waits for the task to finish and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the task itself panicked or was dropped without completing.
    pub async fn join(self) -> T {
        self.rx.recv().await.expect("joined task did not complete")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clock_starts_at_zero_and_advances_with_sleep() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let observed = Rc::new(Cell::new(0u64));
        let obs = observed.clone();
        sim.spawn(async move {
            assert_eq!(h.now(), SimTime::ZERO);
            h.sleep(SimDuration::micros(10)).await;
            obs.set(h.now().as_nanos());
        });
        let stats = sim.run();
        assert_eq!(observed.get(), 10_000);
        assert_eq!(stats.end_time, SimTime::from_micros(10));
        assert_eq!(stats.tasks_pending, 0);
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [30u64, 10, 20].iter().enumerate() {
            let h = sim.handle();
            let order = order.clone();
            let delay = *delay;
            sim.spawn(async move {
                h.sleep(SimDuration::micros(delay)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn nested_spawn_runs() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let hit = Rc::new(Cell::new(false));
        let hit2 = hit.clone();
        sim.spawn(async move {
            let inner = h.clone();
            h.spawn(async move {
                inner.sleep(SimDuration::micros(1)).await;
                hit2.set(true);
            });
        });
        sim.run();
        assert!(hit.get());
    }

    #[test]
    fn spawn_with_result_joins() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let out = Rc::new(Cell::new(0u32));
        let out2 = out.clone();
        sim.spawn(async move {
            let jh = h.spawn_with_result({
                let h = h.clone();
                async move {
                    h.sleep(SimDuration::micros(5)).await;
                    42u32
                }
            });
            out2.set(jh.join().await);
        });
        sim.run();
        assert_eq!(out.get(), 42);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let done = Rc::new(Cell::new(false));
        let done2 = done.clone();
        sim.spawn(async move {
            h.sleep(SimDuration::millis(10)).await;
            done2.set(true);
        });
        let stats = sim.run_until(SimTime::from_millis(1));
        assert!(!done.get());
        assert_eq!(stats.tasks_pending, 1);
        // Continuing the run completes the task.
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn yield_now_allows_same_time_interleaving() {
        let sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let h = sim.handle();
            let order = order.clone();
            sim.spawn(async move {
                order.borrow_mut().push((i, 0));
                h.yield_now().await;
                order.borrow_mut().push((i, 1));
            });
        }
        sim.run();
        let o = order.borrow();
        // Both tasks get their first step before either gets its second.
        assert_eq!(o[0], (0, 0));
        assert_eq!(o[1], (1, 0));
        assert_eq!(o.len(), 4);
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        let draw = |seed| {
            let sim = Sim::new(seed);
            let h = sim.handle();
            (0..8).map(|_| h.rand_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(99), draw(99));
        assert_ne!(draw(99), draw(100));
    }

    #[test]
    fn timeout_returns_none_when_deadline_passes() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let out = Rc::new(RefCell::new(Vec::new()));
        let out2 = out.clone();
        sim.spawn(async move {
            // A future that completes in time.
            let fast = timeout(&h, SimDuration::micros(10), h.sleep(SimDuration::micros(2))).await;
            out2.borrow_mut().push(fast.is_some());
            // A future that does not.
            let slow = timeout(&h, SimDuration::micros(10), h.sleep(SimDuration::millis(5))).await;
            out2.borrow_mut().push(slow.is_some());
        });
        sim.run();
        assert_eq!(*out.borrow(), vec![true, false]);
    }

    /// Spawns a task that never finishes and records its polls and its
    /// latest waker.
    fn pending_task(sim: &Sim) -> (Rc<Cell<u32>>, Rc<RefCell<Option<Waker>>>) {
        let (polls, waker) = (Rc::new(Cell::new(0)), Rc::new(RefCell::new(None)));
        let (p, w) = (polls.clone(), waker.clone());
        sim.spawn(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            *w.borrow_mut() = Some(cx.waker().clone());
            Poll::<()>::Pending
        }));
        (polls, waker)
    }

    #[test]
    fn a_finished_tasks_waker_held_elsewhere_wakes_nothing_in_its_slots_next_task() {
        let sim = Sim::new(1);
        let held = Rc::new(RefCell::new(None));
        let h = held.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            *h.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        let stale: Waker = held.borrow_mut().take().expect("waker held");
        // The next task takes the vacant slot, with a waker of its own.
        let (polls, waker) = pending_task(&sim);
        sim.run();
        assert_eq!(polls.get(), 1);
        let own = waker.borrow_mut().take().expect("waker recorded");
        assert!(!own.will_wake(&stale), "a held waker is never re-stamped");
        stale.wake();
        sim.run();
        assert_eq!(
            polls.get(),
            1,
            "the stale wake reached the slot's next task"
        );
        own.wake();
        sim.run();
        assert_eq!(polls.get(), 2);
    }

    #[test]
    fn a_restamped_waker_wakes_exactly_the_slots_new_task() {
        let sim = Sim::new(1);
        let (other_polls, _other) = pending_task(&sim);
        let finished = Rc::new(Cell::new(std::ptr::null::<()>()));
        let f = finished.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            f.set(cx.waker().data());
            Poll::Ready(())
        }));
        sim.run();
        let (polls, waker) = pending_task(&sim);
        sim.run();
        let waker = waker.borrow_mut().take().expect("waker recorded");
        assert_eq!(
            waker.data(),
            finished.get(),
            "the finished task's waker is re-stamped, not replaced"
        );
        waker.wake();
        sim.run();
        assert_eq!(polls.get(), 2);
        assert_eq!(
            other_polls.get(),
            1,
            "a re-stamped wake reached another task"
        );
    }

    /// A task that holds `held` until it finishes, `after` from now.
    async fn holder(h: SimHandle, held: Rc<()>, after: SimDuration) {
        h.sleep(after).await;
        drop(held);
    }

    #[test]
    fn a_finished_task_drops_what_it_captured_when_it_completes() {
        let sim = Sim::new(1);
        let captured = Rc::new(());
        let c = captured.clone();
        // The closure, and so its capture, lives as long as the future.
        sim.spawn(std::future::poll_fn(move |_| {
            let _ = &c;
            Poll::Ready(())
        }));
        sim.run();
        assert_eq!(Rc::strong_count(&captured), 1, "the box still holds it");
    }

    #[test]
    fn sequential_tasks_of_one_type_share_one_box() {
        let sim = Sim::new(1);
        let h = sim.handle();
        for _ in 0..10 {
            sim.spawn(holder(h.clone(), Rc::new(()), SimDuration::micros(1)));
            sim.run();
        }
        let probe = holder(h.clone(), Rc::new(()), SimDuration::ZERO);
        assert_eq!(h.pooled_boxes(&probe), 1);
    }

    #[test]
    fn a_burst_of_tasks_leaves_the_cap_of_boxes_behind() {
        let sim = Sim::new(1);
        let h = sim.handle();
        for _ in 0..3 * TASK_BOX_POOL_CAP {
            sim.spawn(holder(h.clone(), Rc::new(()), SimDuration::micros(1)));
        }
        sim.run();
        let probe = holder(h.clone(), Rc::new(()), SimDuration::ZERO);
        assert_eq!(h.pooled_boxes(&probe), TASK_BOX_POOL_CAP);
    }

    #[test]
    fn a_task_that_never_finished_is_dropped_with_the_sim() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let held = Rc::new(());
        // It sleeps past the end of the run, holding a handle to the sim.
        sim.spawn(holder(h.clone(), held.clone(), SimDuration::millis(1)));
        sim.run_until(SimTime::from_micros(1));
        drop(h);
        assert_eq!(Rc::strong_count(&held), 2);
        drop(sim);
        assert_eq!(Rc::strong_count(&held), 1);
    }
}
