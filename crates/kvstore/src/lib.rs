//! An ordered in-memory key-value store with a write-ahead log.
//!
//! This crate is the substitute for the RocksDB instance each SwitchFS
//! metadata server uses for its metadata (§4.2, §7.1: "RocksDB in
//! asynchronous write mode"). It provides:
//!
//! * [`KvStats`] — the operation counters a server's store keeps, used to
//!   attribute storage-layer costs in the simulation, and [`KvStore`], a
//!   flat ordered map that counts them: the reference that store is tested
//!   against.
//! * [`Wal`] — a write-ahead log with commit records, per-record "applied"
//!   marks (used by the asynchronous-update protocol to distinguish
//!   change-log entries that have already reached the directory owner,
//!   §5.4.2) and replay support.
//!
//! "Persistence" in a simulation means surviving a simulated crash: a
//! server's WAL (and the checkpoint it keeps beside it) outlives its
//! crash/restart cycle, while its store and all its other volatile state
//! are dropped and rebuilt by recovery.

pub mod store;
pub mod wal;

pub use store::{KvStats, KvStore};
pub use wal::{TornTail, TornTailReport, Wal, WalRecord};
