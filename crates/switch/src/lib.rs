//! The programmable-switch data plane of SwitchFS (§6).
//!
//! This crate models the Tofino pipeline behaviourally but faithfully to the
//! properties the paper's correctness argument relies on:
//!
//! * [`registers`] — per-stage register arrays and the three register
//!   actions (*register query*, *conditional insert*, *conditional remove*)
//!   of §6.3.
//! * [`dirty_set`] — the multi-stage, set-associative in-network dirty set:
//!   `insert`, `query` and `remove` of 49-bit directory fingerprints, with
//!   overflow detection. Operations on the same fingerprint are linearizable
//!   because each simulated packet is processed to completion before the
//!   next (the pipeline's per-stage atomicity and ordered execution).
//! * [`program`] — the full SwitchFS data-plane program: parser (reserved
//!   UDP ports), router (by destination or by fingerprint prefix),
//!   per-egress-pipe dirty-set sharding with mirroring, the address rewriter
//!   used on insert overflow, duplicate-`remove` suppression by sequence
//!   number, and the multicast behaviour used by asynchronous commits and
//!   aggregations.
//!
//! The two server-based alternatives §7.3.3 compares against keep their set
//! in server memory, not here: `switchfs_server::ServerDirtySet`, reached
//! through `Request::DirtySet`.
//!
//! The crate has no dependency on the simulation runtime; the network
//! adapter that plugs [`program::SwitchFsProgram`] into the simulated fabric
//! lives in `switchfs-core`.

pub mod dirty_set;
pub mod program;
pub mod registers;

pub use dirty_set::{DirtySet, DirtySetConfig, InsertOutcome};
pub use program::{SwitchConfig, SwitchFsProgram, SwitchStats};
pub use registers::RegisterStage;
