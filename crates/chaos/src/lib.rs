//! Deterministic fault injection (chaos) for SwitchFS.
//!
//! The paper's recovery story (§5.4.2, §A.1) promises that WAL replay,
//! re-aggregation and invalidation-list cloning restore a consistent
//! namespace after server crashes and switch reboots. This crate turns that
//! promise into an *enumerable, reproducible sweep*, in the tradition of
//! Jepsen-style nemesis testing on top of deterministic simulation:
//!
//! * [`plan`] — seed-driven [`FaultPlan`]s: crash/recover cycles, switch
//!   reboots, network partitions, loss/duplication/reorder windows and
//!   disk-latency spikes, serializable so any failing seed is a one-command
//!   repro;
//! * [`nemesis`] — applies a plan from inside the simulation through the
//!   deployment's [`switchfs_core::Control`] handle, collecting every
//!   `RecoveryReport`;
//! * [`history`] — records each client operation's invocation/response;
//!   [`history::check`] replays each client's history once through a
//!   per-path sequential model and judges outcomes (an ambiguous one admits
//!   either state), final states, rename atomicity and the client
//!   directories' listings against that one model;
//! * [`harness`] — ties it together: [`run_chaos`] executes one scenario end
//!   to end and [`verify_replay`] asserts same-seed runs are bit-identical.
//!
//! ```
//! use switchfs_chaos::{run_chaos, ChaosConfig, PlanKind};
//! use switchfs_core::SystemKind;
//!
//! let report = run_chaos(ChaosConfig::new(SystemKind::SwitchFs, PlanKind::Crash, 1));
//! assert!(report.passed(), "{:?}", report.violations);
//! ```

pub mod harness;
pub mod history;
pub mod nemesis;
pub mod plan;

pub use harness::{run_chaos, verify_replay, ChaosConfig, ChaosReport};
pub use history::{FinalState, History, HistoryEvent};
pub use nemesis::NemesisLog;
pub use plan::{Fault, FaultEvent, FaultPlan, PlanKind};
