//! The SwitchFS metadata server (§5).
//!
//! A metadata server owns a shard of the namespace (per-file hashed inodes
//! plus the directories whose fingerprints map to it), executes metadata
//! operations, and participates in the asynchronous-update protocol:
//!
//! * double-inode operations (`create`, `delete`, `mkdir`, `rmdir`) execute
//!   their *local half* here — update the target inode, persist a change-log
//!   entry for the parent directory, mark the parent *scattered* in the
//!   in-network dirty set, and return in a single round trip (§5.2.1);
//! * directory reads (`statdir`, `readdir`) run the *remote half* — when the
//!   switch reports the directory scattered, the owner aggregates change-log
//!   entries from every server, compacts them and applies them before
//!   replying (§5.2.2, §5.3);
//! * proactive pushing and proactive aggregation bound the amount of work a
//!   directory read can encounter (§5.3);
//! * the write-ahead log plus the recovery procedure of §5.4.2 restore a
//!   crashed server; a rebooted switch is handled by aggregating every
//!   directory.
//!
//! The crate also provides the calibrated [`costs::CostModel`] shared with
//! the baseline systems, so all systems run on identical substrate costs as
//! in the paper's emulation methodology (§7.1).

pub mod changelog;
pub mod config;
pub mod costs;
mod dirs;
pub mod dirty_set;
pub mod locks;
pub mod server;
pub mod wal;

pub use changelog::{ChangeLog, ChangeLogStore};
pub use config::{ServerConfig, TrackingMode, UpdateMode, COORDINATOR_NODE};
pub use costs::CostModel;
pub use dirty_set::ServerDirtySet;
pub use locks::LockManager;
pub use server::{DirContent, Server, ServerStats, ServerTables};
pub use switchfs_kvstore::TornTail;
pub use wal::{DurableState, KvEffect, TxnMarker, WalOp};
