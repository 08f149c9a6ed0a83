//! Regenerates the tables and figures of the SwitchFS evaluation (§7).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p switchfs-bench --bin figures -- [<experiment>...] [--full] [--json]
//! ```
//!
//! where each `<experiment>` is one of `tab2`, `fig2`, `fig12a`, `fig12b`,
//! `fig13`, `fig14`, `overflow`, `fig15`, `fig16`, `fig17a`, `fig17b`,
//! `fig18`, `fig19`, `recovery`, `availability`, `rebalance`,
//! `decommission`, `metrics`, or `all` (the default). `--full` uses the
//! larger experiment scale; `--json` prints one JSON document per
//! experiment to stdout. Any other argument prints the usage and exits 2.

use std::io::{ErrorKind, Write};

use switchfs_bench::{experiments, ExperimentScale, Row};

fn rows_to_json(title: &str, rows: &[Row]) -> serde_json::Value {
    let obj: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            let mut m = serde_json::Map::new();
            m.insert("label".into(), serde_json::Value::String(r.label.clone()));
            for (k, v) in &r.values {
                m.insert(
                    k.clone(),
                    serde_json::Number::from_f64(*v)
                        .map(serde_json::Value::Number)
                        .unwrap_or(serde_json::Value::Null),
                );
            }
            serde_json::Value::Object(m)
        })
        .collect();
    serde_json::json!({ "experiment": title, "rows": obj })
}

fn print_rows(out: &mut impl Write, title: &str, rows: &[Row], json: bool) -> std::io::Result<()> {
    if json {
        return writeln!(out, "{}", rows_to_json(title, rows));
    }
    writeln!(out, "\n== {title} ==")?;
    for row in rows {
        let cols: Vec<String> = row
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v:.1}"))
            .collect();
        writeln!(out, "  {:<40} {}", row.label, cols.join("  "))?;
    }
    Ok(())
}

/// Every experiment: its command-line name, its title and how to compute
/// its rows, in the order `all` runs them.
type Experiment = (&'static str, &'static str, fn(ExperimentScale) -> Vec<Row>);

const EXPERIMENTS: [Experiment; 18] = [
    ("tab2", "Tab. 2: PanguFS operation mix", |_| {
        experiments::tab2()
    }),
    (
        "fig2",
        "Fig. 2: motivation — baseline scalability and contention",
        experiments::fig2,
    ),
    (
        "fig12a",
        "Fig. 12(a): throughput, single large directory (8 servers)",
        |scale| experiments::fig12(scale, true, 8),
    ),
    (
        "fig12b",
        "Fig. 12(b): throughput, multiple directories (8 servers)",
        |scale| experiments::fig12(scale, false, 8),
    ),
    (
        "fig13",
        "Fig. 13: operation latency (single client, 8 servers)",
        experiments::fig13,
    ),
    (
        "fig14",
        "Fig. 14: contribution breakdown (Baseline / +Async / +Compaction)",
        experiments::fig14,
    ),
    (
        "overflow",
        "§7.3.2: impact of dirty-set overflow",
        experiments::overflow,
    ),
    (
        "fig15",
        "Fig. 15: dedicated server vs programmable switch",
        experiments::fig15,
    ),
    (
        "fig16",
        "Fig. 16: owner-server tracking vs in-network tracking",
        experiments::fig16,
    ),
    (
        "fig17a",
        "Fig. 17(a): create bursts, 32 in-flight requests",
        |scale| experiments::fig17(scale, 32),
    ),
    (
        "fig17b",
        "Fig. 17(b): create bursts, 256 in-flight requests",
        |scale| experiments::fig17(scale, 256),
    ),
    (
        "fig18",
        "Fig. 18: statdir latency after preceding creates (aggregation overhead)",
        experiments::fig18,
    ),
    ("fig19", "Fig. 19: end-to-end workloads", experiments::fig19),
    (
        "recovery",
        "§7.7: crash recovery time",
        experiments::recovery,
    ),
    (
        "availability",
        "§7.7: availability under a server crash (healthy / degraded / recovered)",
        experiments::availability,
    ),
    (
        "rebalance",
        "Elastic scale-out: live shard migration onto a newly added server",
        experiments::rebalance,
    ),
    (
        "decommission",
        "Elastic shrink: graceful decommission of a loaded server",
        experiments::decommission,
    ),
    (
        "metrics",
        "Unified metrics registry (flight recorder enabled)",
        experiments::metrics,
    ),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    format!(
        "usage: figures [EXPERIMENT...] [--full] [--json]\nEXPERIMENT: all (the default), {}",
        names.join(", ")
    )
}

fn main() {
    let (mut scale, mut json, mut selection) = (ExperimentScale::Quick, false, Vec::new());
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => scale = ExperimentScale::Full,
            "--json" => json = true,
            "all" => selection.extend(EXPERIMENTS.iter()),
            name => match EXPERIMENTS.iter().find(|(known, ..)| *known == name) {
                Some(experiment) => selection.push(experiment),
                None => {
                    eprintln!("unknown argument: {name}\n{}", usage());
                    std::process::exit(2);
                }
            },
        }
    }
    if selection.is_empty() {
        selection.extend(EXPERIMENTS.iter());
    }
    let mut out = std::io::stdout().lock();
    for (_, title, rows) in selection {
        match print_rows(&mut out, title, &rows(scale), json) {
            Ok(()) => {}
            // The reader has gone (`figures all | head`): nothing left to do.
            Err(e) if e.kind() == ErrorKind::BrokenPipe => return,
            Err(e) => {
                eprintln!("cannot write to stdout: {e}");
                std::process::exit(1);
            }
        }
    }
}
