//! Wire protocol, metadata schema and identifiers shared by every SwitchFS
//! component.
//!
//! This crate is deliberately free of simulation dependencies: it defines
//! *what* travels on the network and *what* the metadata looks like, exactly
//! following §4.3 (metadata schema), §6.1 (packet format) and §5.3
//! (change-log entries) of the paper:
//!
//! * [`ids`] — 256-bit directory identifiers, 49-bit directory fingerprints,
//!   server/client identifiers.
//! * [`schema`] — key/value metadata schema: `(pid, name)` keys, inode
//!   attributes, directory entries.
//! * [`error`] — POSIX-style error codes returned by metadata operations.
//! * [`changelog`] — delayed directory-update records (change-log entries)
//!   and their compaction-friendly representation.
//! * [`dirtyset`] — the dirty-set operation header parsed by the
//!   programmable switch, including its binary wire format (Fig. 9).
//! * [`message`] — typed RPC requests, responses and server-to-server
//!   protocol messages.
//! * [`placement`] — the two partitioning policies (per-file hashing,
//!   per-directory hashing) and the one routing rule every component asks.
//! * [`retry`] — the retransmission policies of clients and servers.
//! * [`wire`] — binary encoding of the switch-visible packet headers.

pub mod changelog;
pub mod dirtyset;
pub mod error;
pub mod ids;
pub mod message;
pub mod placement;
pub mod retry;
pub mod schema;
pub mod wire;

pub use changelog::{ChangeLogEntry, ChangeOp};
pub use dirtyset::{DirtyRet, DirtySetHeader, DirtySetOp, DirtyState};
pub use error::{FsError, FsResult};
pub use ids::{ClientId, DirId, Fingerprint, OpId, ServerId, TraceId};
pub use message::{
    Body, ClientRequest, ClientResponse, MetaOp, NetMsg, OpResult, ParentRef, ServerMsg, UdpPorts,
};
pub use placement::{PartitionPolicy, Placement, ShardMap, SharedPlacement};
pub use retry::Retry;
pub use schema::{DirEntry, FileType, InodeAttrs, MetaKey, Name, Permissions, Timestamps};
