//! Cluster-level configuration.

use crate::systems::SystemKind;
use switchfs_server::{CostModel, TrackingMode, UpdateMode};
use switchfs_simnet::SimDuration;

/// Configuration of one simulated deployment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Which system to deploy.
    pub system: SystemKind,
    /// Number of metadata servers (the paper sweeps 4–16).
    pub servers: usize,
    /// Cores per metadata server (the paper sweeps 2–12; default 4).
    pub cores_per_server: usize,
    /// Number of client (LibFS) instances.
    pub clients: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Where directory dirty state is tracked (the §7.3.3 comparison; only
    /// meaningful for SwitchFS), handed to each server unchanged.
    pub tracking: TrackingMode,
    /// Overrides the system's update mode (used by the Fig. 14 breakdown to
    /// run "+Async" without compaction).
    pub update_mode_override: Option<UpdateMode>,
    /// Force every dirty-set insert to overflow (§7.3.2): the switch gets a
    /// dirty set with zero stages.
    pub force_dirty_overflow: bool,
    /// Enable causal op tracing into the shared flight recorder with this
    /// many events of per-node ring capacity. `None` (the default) deploys a
    /// disabled recorder: every instrumentation site is a single branch and
    /// the protocol schedule is bit-identical either way.
    pub trace_capacity: Option<usize>,
}

impl ClusterConfig {
    /// A configuration matching the paper's default testbed shape: the given
    /// system, 8 servers × 4 cores, 4 clients, single rack, reliable network.
    pub fn paper_default(system: SystemKind) -> Self {
        ClusterConfig {
            system,
            servers: 8,
            cores_per_server: 4,
            clients: 4,
            seed: 42,
            tracking: TrackingMode::InNetwork,
            update_mode_override: None,
            force_dirty_overflow: false,
            trace_capacity: None,
        }
    }

    /// Same as [`ClusterConfig::paper_default`] but with the given server
    /// count.
    pub fn with_servers(system: SystemKind, servers: usize) -> Self {
        ClusterConfig {
            servers,
            ..Self::paper_default(system)
        }
    }

    /// The effective update mode.
    pub fn update_mode(&self) -> UpdateMode {
        self.update_mode_override
            .unwrap_or_else(|| self.system.update_mode())
    }

    /// The system's cost model.
    pub fn cost_model(&self) -> CostModel {
        self.system.cost_model()
    }

    /// The client request timeout: scaled to the system's software stack so
    /// heavyweight baselines do not spuriously retransmit.
    pub fn client_request_timeout(&self) -> SimDuration {
        SimDuration::micros(400) + self.cost_model().extra_software * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_testbed_shape() {
        let c = ClusterConfig::paper_default(SystemKind::SwitchFs);
        assert_eq!(c.servers, 8);
        assert_eq!(c.cores_per_server, 4);
        assert_eq!(c.tracking, TrackingMode::InNetwork);
        assert_eq!(c.update_mode(), UpdateMode::AsyncCompacted);
    }

    #[test]
    fn overrides_take_effect() {
        let mut c = ClusterConfig::paper_default(SystemKind::SwitchFs);
        c.update_mode_override = Some(UpdateMode::AsyncNoCompaction);
        assert_eq!(c.update_mode(), UpdateMode::AsyncNoCompaction);
        assert_eq!(
            ClusterConfig::with_servers(SystemKind::EmulatedCfs, 16).servers,
            16
        );
    }

    #[test]
    fn heavy_baselines_get_longer_timeouts() {
        let fast = ClusterConfig::paper_default(SystemKind::SwitchFs).client_request_timeout();
        let slow = ClusterConfig::paper_default(SystemKind::CephFsLike).client_request_timeout();
        assert!(slow > fast);
    }
}
