//! Simulation-aware synchronization primitives.
//!
//! All primitives are single-threaded (the simulation executor never runs
//! tasks in parallel) and FIFO-fair: waiters are granted the resource in the
//! order they started waiting, which keeps simulated queueing behaviour
//! faithful to the first-come-first-served service disciplines the SwitchFS
//! paper assumes for locks and CPU run queues.

pub mod classlock;
pub mod mpsc;
pub mod notify;
pub mod oneshot;
pub mod semaphore;

pub use classlock::{Access, ClassGuard, SimClassLock};
pub use mpsc::{channel, Receiver, Sender};
pub use notify::Notify;
pub use semaphore::{Semaphore, SemaphorePermit};
