//! LibFS: the SwitchFS client library (§4.2).
//!
//! A client holds a metadata cache of directory information, performs path
//! resolution against it (falling back to `lookup` RPCs on misses), routes
//! each metadata operation to the owning server according to the cluster's
//! partitioning policy, attaches dirty-set query headers to directory reads,
//! retries requests on timeouts, and honours the lazy cache-invalidation
//! protocol (`ESTALE` responses force the client to drop the stale entries
//! and retry the whole operation, §5.2.1).
//!
//! The same LibFS drives both SwitchFS clusters and the emulated baselines —
//! only the policy of the shard map its [`router::Router`] holds differs —
//! mirroring the paper's setup where all emulated systems share one client
//! framework.

pub mod cache;
pub mod libfs;
pub mod router;

pub use cache::{CachedDir, MetaCache};
pub use libfs::{ClientStats, LibFs, LibFsConfig};
pub use router::Router;
