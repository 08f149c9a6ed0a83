//! The emulated baseline distributed filesystems (§7.1).
//!
//! The SwitchFS paper compares against CephFS, IndexFS, and *emulated*
//! versions of InfiniFS and CFS that share SwitchFS's storage and networking
//! framework. This crate takes the same approach: every baseline reuses the
//! `switchfs-server` runtime in **synchronous update mode** and differs only
//! in its partitioning policy (which is also its request routing) and
//! per-operation software cost:
//!
//! | System | Partitioning | Double-inode ops | Extra software cost |
//! |---|---|---|---|
//! | Emulated-InfiniFS | P/C grouping (per-directory hashing) | `create`/`delete` local, `mkdir`/`rmdir` cross-server | none |
//! | Emulated-CFS | P/C separation (per-file hashing) | all cross-server, serialized at the parent's owner | none |
//! | CephFS-like | P/C grouping | as Emulated-InfiniFS | ~400 µs per op |
//! | IndexFS-like | P/C grouping | as Emulated-InfiniFS | ~120 µs per op |
//!
//! SwitchFS itself (asynchronous updates, in-network dirty set) is configured
//! through the same [`SystemKind`] enum so the evaluation harness can sweep
//! all five systems uniformly.

pub mod systems;

pub use systems::SystemKind;
