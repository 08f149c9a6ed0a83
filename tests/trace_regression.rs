//! Regressions for the statdir size-vs-entries divergence family and for
//! the recovery-replay instrumentation.
//!
//! A directory's size used to be a counter stored in its inode beside the
//! entry list; under dense chaos load the two drifted apart (`statdir size
//! N != M listed entries`, off by up to 9). The size is now read off the
//! entry list when a reply is built, so there is nothing left to drift: the
//! cells that pinned the divergence are a green regression here.

use switchfs::chaos::{run_chaos, ChaosConfig, PlanKind};
use switchfs::core::SystemKind;
use switchfs::obs::EventKind;

/// The five cells of `chaos-sweep --seeds 10 --ops 400` that tripped the
/// checker while the size was a stored counter (crash/0 by 1, decommission/4
/// by 2, diskchaos/6 by 9, …) pass at that load.
#[test]
fn dense_load_cells_that_pinned_the_size_divergence_pass() {
    for (kind, seed) in [
        (PlanKind::Crash, 0u64),
        (PlanKind::Crash, 3),
        (PlanKind::Combined, 8),
        (PlanKind::Decommission, 4),
        (PlanKind::DiskChaos, 6),
    ] {
        let mut cfg = ChaosConfig::new(SystemKind::SwitchFs, kind, seed);
        cfg.ops_per_client = 400;
        let report = run_chaos(cfg);
        assert!(
            report.passed(),
            "{kind:?}/{seed} at 400 ops per client tripped the checker: {:?}",
            report.violations
        );
    }
}

/// Green-path regression for the recovery instrumentation itself: a small
/// crash run must leave per-effect replay events in the recorder, and replay
/// detail only appears alongside an aggregate `RecoveryReplay` summary that
/// accounts for at least one record.
#[test]
fn recovery_replay_emits_per_effect_events() {
    let mut found_detail = false;
    for seed in [1u64, 2, 4] {
        let cfg = ChaosConfig::new(SystemKind::SwitchFs, PlanKind::Crash, seed);
        let report = run_chaos(cfg);
        assert!(
            report.passed(),
            "crash/{} tripped the checker: {:?}",
            seed,
            report.violations
        );
        let mut replayed_records = 0u64;
        let mut detail = 0usize;
        for e in &report.flight_recorder {
            match e.kind {
                EventKind::RecoveryReplay { records, .. } => replayed_records += records,
                EventKind::RecoveryEntryApply { .. } => detail += 1,
                _ => {}
            }
        }
        if detail > 0 {
            assert!(
                replayed_records > 0,
                "crash/{seed}: replay detail without an aggregate RecoveryReplay summary"
            );
            found_detail = true;
        }
    }
    assert!(
        found_detail,
        "no crash seed produced per-effect replay events; the instrumentation \
         (or the plan generator's crash coverage) regressed"
    );
}
