//! Crash recovery walkthrough (§5.4.2, §7.7), driven by the chaos
//! subsystem: a seed-generated fault plan crashes and recovers metadata
//! servers (and reboots the switch) underneath a live workload, the history
//! checker verifies the namespace against a sequential model, and the same
//! seed + plan replays bit-identically.
//!
//! Run with: `cargo run --example crash_recovery`

use switchfs::chaos::{verify_replay, ChaosConfig, PlanKind};
use switchfs::core::SystemKind;

fn main() {
    let cfg = ChaosConfig::new(SystemKind::SwitchFs, PlanKind::Crash, 42);
    println!(
        "chaos run: {} / {} plan / seed {}, {} servers, {} clients x {} ops",
        cfg.system,
        cfg.kind.label(),
        cfg.seed,
        cfg.servers,
        cfg.clients,
        cfg.ops_per_client
    );

    let (report, replay_ok) = verify_replay(cfg);

    println!("\nfault plan (serializable, one-command reproducible):");
    println!("  {}", report.plan.to_json());

    println!("\nworkload under faults:");
    println!(
        "  {} ops recorded: {} succeeded, {} ambiguous (timed out mid-fault)",
        report.history.events.len(),
        report.history.ok(),
        report.history.ambiguous()
    );

    println!("\nrecoveries driven by the nemesis:");
    for (server, r) in &report.nemesis.recoveries {
        println!(
            "  server {server}: {} WAL records replayed, {} inodes rebuilt, {} change-log \
             entries rebuilt, {} dirs re-aggregated, {} in-doubt txns ({} committed, {} aborted), \
             {:.2} ms of virtual time",
            r.wal_records_replayed,
            r.inodes_recovered,
            r.changelog_entries_recovered,
            r.directories_aggregated,
            r.prepared_txns_recovered,
            r.txn_commits_recovered,
            r.txn_aborts_recovered,
            r.duration_ns as f64 / 1e6
        );
    }
    if report.nemesis.switch_reboots > 0 {
        println!(
            "  plus {} switch reboot(s) reconciled",
            report.nemesis.switch_reboots
        );
    }

    println!("\nconsistency checker:");
    assert!(
        report.passed(),
        "violations found: {:#?}",
        report.violations
    );
    println!("  no violations — the namespace converged after every fault");
    assert!(replay_ok, "same seed + plan must replay bit-identically");
    println!(
        "  replay verified: digest {:016x} reproduced on a second run",
        report.digest
    );
}
