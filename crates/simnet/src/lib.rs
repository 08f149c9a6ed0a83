//! Deterministic discrete-event simulation substrate for SwitchFS.
//!
//! The SwitchFS paper evaluates an 8–16 node metadata cluster connected by a
//! Tofino programmable switch over 100 GbE. This crate provides the
//! laptop-scale substitute: a single-threaded, virtual-time, asynchronous
//! runtime in which every SwitchFS component (clients, metadata servers, the
//! programmable switch) runs as a cooperative task, and in which CPU time,
//! lock contention and network round-trips are charged to a simulated clock.
//!
//! The crate provides:
//!
//! * [`Sim`] / [`SimHandle`] — the virtual-time executor. Tasks are ordinary
//!   Rust futures; `await` points correspond to simulated waits.
//! * [`time::SimTime`] and [`time::SimDuration`] — nanosecond-resolution
//!   virtual time.
//! * [`sync`] — FIFO-fair simulation-aware synchronization primitives
//!   (the class lock, semaphore, oneshot and mpsc channels, notify).
//! * [`cpu::CpuPool`] — an *N*-core processor model with FIFO run-queue
//!   semantics; server code paths charge calibrated service times to it.
//! * [`net`] — a message-passing network with per-hop latency, programmable
//!   switch hooks and loss / duplication / reordering injection, for one
//!   rack behind one switch.
//! * [`metrics`] — the latency histogram used by the evaluation harness.
//!
//! Determinism: given the same seed and the same sequence of operations, a
//! simulation produces bit-identical schedules, which makes the protocol
//! tests and the figures harness reproducible.
//!
//! # Examples
//!
//! ```
//! use switchfs_simnet::{Sim, SimDuration};
//!
//! let sim = Sim::new(7);
//! let h = sim.handle();
//! sim.spawn(async move {
//!     h.sleep(SimDuration::micros(3)).await;
//!     assert_eq!(h.now().as_nanos(), 3_000);
//! });
//! sim.run();
//! ```

pub mod cpu;
pub mod executor;
pub mod fxhash;
pub mod metrics;
pub mod net;
pub mod sync;
pub mod time;

pub use cpu::CpuPool;
pub use executor::{timeout, Sim, SimHandle, TaskId};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use metrics::LatencyHistogram;
pub use net::{Endpoint, Fanout, NetFaults, Network, NodeId, Packet, SwitchAction, SwitchLogic};
pub use time::{SimDuration, SimTime};
