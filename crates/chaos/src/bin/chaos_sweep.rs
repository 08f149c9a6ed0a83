//! Multi-seed chaos sweep, used by the `chaos-smoke` CI job and for local
//! soak runs.
//!
//! ```text
//! cargo run --release -p switchfs-chaos --bin chaos-sweep -- \
//!     [--seeds N] [--ops N] [--all-systems] [--replay-every N] \
//!     [--artifact PATH] [--summary PATH] [--trace-dump PATH]
//! ```
//!
//! Runs `N` seeds × every plan kind (crash / partition / loss / combined /
//! membership / decommission / diskchaos), each with the consistency
//! checker on. On the
//! first failure the seed and the serialized fault plan are written to
//! `PATH` (default `chaos-failure.json`) so the red run is reproducible
//! with:
//!
//! ```text
//! cargo run --release -p switchfs-chaos --bin chaos-sweep -- --repro PATH
//! ```
//!
//! `--summary PATH` additionally writes a machine-readable sweep summary
//! (runs, failures, per-system×kind pass counts, every failed run with its
//! violations, summed unified metrics) whether the sweep passes or fails —
//! so a green CI run leaves evidence too, not only a red one.
//!
//! `--trace-dump PATH` writes the flight-recorder contents of the last run,
//! green or red, once the sweep (or the `--repro` run) is over — so trace
//! events are inspectable without waiting for a checker to trip.

use serde::Deserialize;
use switchfs_chaos::{run_chaos, verify_replay, ChaosConfig, ChaosReport, PlanKind};
use switchfs_core::SystemKind;

/// The failure-artifact schema (also what `--repro` reads back).
#[derive(Debug, Deserialize)]
struct Artifact {
    system: String,
    seed: u64,
    kind: String,
    servers: usize,
    clients: usize,
    ops_per_client: usize,
    horizon_us: u64,
}

struct Args {
    seeds: u64,
    ops: usize,
    all_systems: bool,
    replay_every: u64,
    artifact: String,
    summary: Option<String>,
    repro: Option<String>,
    trace_dump: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 20,
        ops: 40,
        all_systems: false,
        replay_every: 5,
        artifact: "chaos-failure.json".to_string(),
        summary: None,
        repro: None,
        trace_dump: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--seeds" => args.seeds = value(&mut argv, &flag),
            "--ops" => args.ops = value(&mut argv, &flag),
            "--all-systems" => args.all_systems = true,
            "--replay-every" => args.replay_every = value(&mut argv, &flag),
            "--artifact" => args.artifact = value(&mut argv, &flag),
            "--summary" => args.summary = Some(value(&mut argv, &flag)),
            "--repro" => args.repro = Some(value(&mut argv, &flag)),
            "--trace-dump" => args.trace_dump = Some(value(&mut argv, &flag)),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The value after `flag`; a missing or unparsable one ends the process
/// with exit status 2.
fn value<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match argv.next() {
        None => eprintln!("{flag} needs a value"),
        Some(text) => match text.parse() {
            Ok(v) => return v,
            Err(_) => eprintln!("{flag}: not a valid value: {text:?}"),
        },
    }
    std::process::exit(2);
}

/// Serializes a flight-recorder dump into a JSON value (an array of trace
/// events, ordered by node then FIFO).
fn recorder_json(events: &[switchfs_obs::TraceEvent]) -> serde_json::Value {
    serde_json::to_string(&events.to_vec())
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .unwrap_or(serde_json::Value::Null)
}

/// The artifact format: everything needed to re-run one failing scenario,
/// plus the flight-recorder dump showing what led up to the violation.
fn failure_artifact(cfg: &ChaosConfig, report: &ChaosReport) -> String {
    let violations_json: Vec<serde_json::Value> = report
        .violations
        .iter()
        .map(|v| serde_json::Value::String(v.clone()))
        .collect();
    serde_json::json!({
        "system": format!("{}", cfg.system),
        "seed": cfg.seed,
        "kind": report.plan.kind.label(),
        "servers": cfg.servers,
        "clients": cfg.clients,
        "ops_per_client": cfg.ops_per_client,
        "horizon_us": cfg.horizon_us,
        "violations": violations_json,
        "plan": serde_json::from_str::<serde_json::Value>(&report.plan.to_json())
            .unwrap_or(serde_json::Value::Null),
        "flight_recorder": recorder_json(&report.flight_recorder),
    })
    .to_string()
}

/// Writes one run's flight-recorder contents to `path`.
fn write_trace_dump(path: &str, cfg: &ChaosConfig, report: &ChaosReport) {
    let dump = serde_json::json!({
        "system": format!("{}", cfg.system),
        "seed": cfg.seed,
        "kind": report.plan.kind.label(),
        "events": recorder_json(&report.flight_recorder),
    });
    if let Err(e) = std::fs::write(path, format!("{dump}\n")) {
        eprintln!("cannot write trace dump {path}: {e}");
    }
}

/// The item of `all` whose label is `label`; an unknown label ends the
/// process with exit status 2.
fn by_label<T: Copy>(all: &[T], label: fn(&T) -> &'static str, wanted: &str, what: &str) -> T {
    all.iter()
        .copied()
        .find(|item| label(item) == wanted)
        .unwrap_or_else(|| {
            eprintln!("unknown {what} in the artifact: {wanted:?}");
            std::process::exit(2);
        })
}

fn run_one(cfg: ChaosConfig, check_replay: bool, artifact: &str) -> (bool, ChaosReport) {
    let label = format!("{} / {} / seed {}", cfg.system, cfg.kind.label(), cfg.seed);
    let (report, replay_ok) = if check_replay {
        verify_replay(cfg)
    } else {
        (run_chaos(cfg), true)
    };
    let mut ok = report.passed();
    if !replay_ok {
        eprintln!("FAIL {label}: same seed + plan did not replay bit-identically");
        ok = false;
    }
    if !report.passed() {
        eprintln!("FAIL {label}: {} violation(s)", report.violations.len());
        for v in &report.violations {
            eprintln!("  - {v}");
        }
        let art = failure_artifact(&cfg, &report);
        if let Err(e) = std::fs::write(artifact, format!("{art}\n")) {
            eprintln!("cannot write artifact {artifact}: {e}");
        } else {
            eprintln!("wrote failing seed + plan to {artifact}");
        }
    } else if ok {
        let recovered: usize = report
            .nemesis
            .recoveries
            .iter()
            .map(|(_, r)| r.prepared_txns_recovered)
            .sum();
        let unflushed: usize = report
            .nemesis
            .torn_tails
            .iter()
            .map(|(_, t)| t.kept + t.torn + t.dropped)
            .sum();
        let truncated: usize = report
            .nemesis
            .recoveries
            .iter()
            .map(|(_, r)| r.wal_truncated_records)
            .sum();
        println!(
            "ok   {label}: {} ops ({} ok, {} ambiguous), {} recoveries, {} in-doubt txns resolved{}{}",
            report.history.events.len(),
            report.history.ok(),
            report.history.ambiguous(),
            report.nemesis.recoveries.len(),
            recovered,
            if unflushed > 0 || truncated > 0 {
                format!(", {unflushed} WAL records caught unflushed ({truncated} truncated)")
            } else {
                String::new()
            },
            if check_replay { ", replay verified" } else { "" },
        );
    }
    (ok, report)
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.repro {
        // Re-run one failing scenario from its artifact.
        let text = std::fs::read_to_string(path).expect("readable artifact");
        let doc: Artifact = serde_json::from_str(&text).expect("valid artifact JSON");
        let cfg = ChaosConfig {
            system: by_label(&SystemKind::all(), SystemKind::label, &doc.system, "system"),
            seed: doc.seed,
            kind: by_label(&PlanKind::all(), PlanKind::label, &doc.kind, "plan kind"),
            servers: doc.servers,
            clients: doc.clients,
            ops_per_client: doc.ops_per_client,
            horizon_us: doc.horizon_us,
            trace: true,
        };
        let (ok, report) = run_one(cfg, true, "chaos-failure-repro.json");
        if let Some(path) = &args.trace_dump {
            write_trace_dump(path, &cfg, &report);
        }
        std::process::exit(if ok { 0 } else { 1 });
    }

    let systems: Vec<SystemKind> = if args.all_systems {
        SystemKind::all().to_vec()
    } else {
        vec![SystemKind::SwitchFs]
    };
    let mut failures = 0u64;
    let mut runs = 0u64;
    let mut cells: Vec<serde_json::Value> = Vec::new();
    let mut failed_runs: Vec<serde_json::Value> = Vec::new();
    let mut metric_totals: std::collections::BTreeMap<String, u64> = Default::default();
    let mut last = None;
    for system in &systems {
        for kind in PlanKind::all() {
            let mut cell_passed = 0u64;
            let mut cell_failed = 0u64;
            for seed in 0..args.seeds {
                let mut cfg = ChaosConfig::new(*system, kind, seed);
                cfg.ops_per_client = args.ops;
                let check_replay = args.replay_every > 0 && seed % args.replay_every == 0;
                runs += 1;
                let (ok, report) = run_one(cfg, check_replay, &args.artifact);
                for (name, value) in report.metrics.snapshot() {
                    if let switchfs_obs::MetricValue::Counter(v) = value {
                        *metric_totals.entry(name).or_insert(0) += v;
                    }
                }
                if ok {
                    cell_passed += 1;
                } else {
                    cell_failed += 1;
                    failures += 1;
                    // No violations on a failed run means the replay check
                    // is what failed.
                    failed_runs.push(serde_json::json!({
                        "system": format!("{system}"),
                        "kind": kind.label(),
                        "seed": seed,
                        "violations": report.violations,
                    }));
                }
                last = Some((cfg, report));
            }
            cells.push(serde_json::json!({
                "system": format!("{system}"),
                "kind": kind.label(),
                "passed": cell_passed,
                "failed": cell_failed,
            }));
        }
    }
    println!(
        "chaos sweep: {runs} runs, {failures} failures ({} systems × {} kinds × {} seeds)",
        systems.len(),
        PlanKind::all().len(),
        args.seeds
    );
    if let (Some(path), Some((cfg, report))) = (&args.trace_dump, &last) {
        write_trace_dump(path, cfg, report);
    }
    // The summary is written on success AND failure: a green sweep should
    // leave evidence of what it covered, not only a red one.
    if let Some(path) = &args.summary {
        // Stable-ordered named metric rows, summed over every run of the
        // sweep (BTreeMap keeps the names sorted).
        let mut metric_map = serde_json::Map::new();
        for (name, v) in metric_totals {
            metric_map.insert(
                name,
                serde_json::Value::Number(serde_json::Number::from_u64(v)),
            );
        }
        let metrics_json = serde_json::Value::Object(metric_map);
        let summary = serde_json::json!({
            "runs": runs,
            "failures": failures,
            "seeds": args.seeds,
            "ops_per_client": args.ops,
            "replay_every": args.replay_every,
            "systems": systems.iter().map(|s| format!("{s}")).collect::<Vec<_>>(),
            "kinds": PlanKind::all().iter().map(|k| k.label()).collect::<Vec<_>>(),
            "cells": cells,
            "failed_runs": failed_runs,
            "metrics": metrics_json,
        });
        match std::fs::write(path, format!("{summary}\n")) {
            Ok(()) => eprintln!("wrote sweep summary to {path}"),
            Err(e) => eprintln!("cannot write summary {path}: {e}"),
        }
    }
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
