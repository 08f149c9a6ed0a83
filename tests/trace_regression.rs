//! Regressions for the statdir size-vs-entries divergence family and for
//! the recovery-replay instrumentation, and the event vocabulary: every
//! `EventKind` is emitted by a run.
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

/// The event vocabulary, written once: the names the runs below must emit and
/// a wildcard-free `match` from an event to its name. A new `EventKind`
/// variant does not build until it is listed here, and once listed the test
/// fails until some run emits it.
macro_rules! vocabulary {
    ($($kind:ident),* $(,)?) => {
        const EVENT_KINDS: &[&str] = &[$(stringify!($kind)),*];
        fn kind_name(kind: &EventKind) -> &'static str {
            match kind {
                $(EventKind::$kind { .. } => stringify!($kind)),*
            }
        }
    };
}
vocabulary!(
    ClientIssue,
    ClientMapRefresh,
    Dispatch,
    WrongOwner,
    WalAppend,
    WalFlush,
    TxnPrepare,
    TxnDecide,
    ChangeLogPush,
    EntryApply,
    DiscardConfirm,
    MigrationFreeze,
    MigrationStream,
    MigrationFlip,
    AggregationFanout,
    RecoveryReplay,
    RecoveryEntryApply,
);

/// An event kind nothing emits is a question a dump cannot answer: every kind
/// of the vocabulary appears in the flight recorders of SwitchFS under every
/// plan kind, seeds 0 and 1, at the default load.
#[test]
fn every_event_kind_is_emitted_by_some_run() {
    let mut emitted = std::collections::BTreeSet::new();
    for plan in PlanKind::all() {
        for seed in 0..2 {
            let report = run_chaos(ChaosConfig::new(SystemKind::SwitchFs, plan, seed));
            emitted.extend(report.flight_recorder.iter().map(|e| kind_name(&e.kind)));
        }
    }
    let silent: Vec<_> = EVENT_KINDS
        .iter()
        .filter(|kind| !emitted.contains(*kind))
        .collect();
    assert!(
        silent.is_empty(),
        "no run emitted {silent:?}: the emission site is gone, or the plans no longer reach it"
    );
}
