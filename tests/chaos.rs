//! Chaos smoke: a reduced multi-seed fault sweep with the consistency
//! checker on, run as part of tier-1 `cargo test`. The full 20-seed ×
//! all-systems sweep runs in CI's `chaos-smoke` job via the `chaos-sweep`
//! binary (which also uploads a failing seed + serialized fault plan as a
//! one-command-reproducible artifact).

use switchfs::chaos::{run_chaos, verify_replay, ChaosConfig, FaultPlan, PlanKind};
use switchfs::core::SystemKind;

fn assert_passed(cfg: ChaosConfig) -> switchfs::chaos::ChaosReport {
    let report = run_chaos(cfg);
    assert!(
        report.passed(),
        "{} / {} / seed {} failed; plan {}\nviolations: {:#?}",
        cfg.system,
        cfg.kind.label(),
        cfg.seed,
        report.plan.to_json(),
        report.violations
    );
    report
}

#[test]
fn switchfs_survives_every_plan_kind_across_seeds() {
    for kind in PlanKind::all() {
        for seed in 0..5 {
            assert_passed(ChaosConfig::new(SystemKind::SwitchFs, kind, seed));
        }
    }
}

#[test]
fn every_system_kind_survives_a_combined_plan() {
    for system in SystemKind::all() {
        assert_passed(ChaosConfig::new(system, PlanKind::Combined, 3));
    }
}

#[test]
fn crash_plans_actually_recover_servers() {
    let report = assert_passed(ChaosConfig::new(SystemKind::SwitchFs, PlanKind::Crash, 0));
    assert!(
        !report.nemesis.recoveries.is_empty(),
        "a crash plan must drive at least one recovery"
    );
    for (server, r) in &report.nemesis.recoveries {
        assert!(
            r.wal_records_replayed > 0 || r.inodes_recovered > 0,
            "server {server} recovery replayed nothing: {r:?}"
        );
        assert_eq!(r.txn_unresolved, 0, "server {server}: {r:?}");
    }
    assert_eq!(report.stranded_prepared, 0);
}

#[test]
fn same_seed_and_plan_replay_bit_identically() {
    let (report, replay_ok) = verify_replay(ChaosConfig::new(
        SystemKind::SwitchFs,
        PlanKind::Combined,
        7,
    ));
    assert!(report.passed(), "{:?}", report.violations);
    assert!(replay_ok, "same seed + plan must replay bit-identically");
    // And the plan itself regenerates identically.
    let again = FaultPlan::generate(
        report.plan.kind,
        report.plan.seed,
        4,
        report.plan.horizon_us,
    );
    assert_eq!(again, report.plan);
}

#[test]
fn fault_plans_serialize_for_artifact_reproduction() {
    let plan = FaultPlan::generate(PlanKind::Combined, 99, 4, 60_000);
    let back = FaultPlan::from_json(&plan.to_json()).unwrap();
    assert_eq!(plan, back);
}
