//! Regenerates the tables and figures of the SwitchFS evaluation (§7).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p switchfs-bench --bin figures -- <experiment> [--full] [--json [PATH]]
//! ```
//!
//! where `<experiment>` is one of `tab2`, `fig2`, `fig12a`, `fig12b`,
//! `fig13`, `fig14`, `overflow`, `fig15`, `fig16`, `fig17a`, `fig17b`,
//! `fig18`, `fig19`, `recovery`, `availability`, `rebalance`,
//! `decommission`, `metrics`, or `all`. `--full` uses the larger
//! experiment scale; `--json` emits machine-readable output — one JSON
//! document per experiment to stdout, or, when a `PATH` follows, a single
//! document collecting every experiment plus per-experiment and total wall
//! clock.

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

fn print_rows(title: &str, rows: &[Row], json: bool) {
    if json {
        println!("{}", rows_to_json(title, rows));
        return;
    }
    println!("\n== {title} ==");
    for row in rows {
        let cols: Vec<String> = row
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v:.1}"))
            .collect();
        println!("  {:<40} {}", row.label, cols.join("  "));
    }
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

fn compute(which: &str, scale: ExperimentScale) -> Option<(&'static str, Vec<Row>)> {
    let (_, title, rows) = EXPERIMENTS.iter().find(|(name, ..)| *name == which)?;
    Some((title, rows(scale)))
}

fn run(which: &str, scale: ExperimentScale, json: bool) {
    if which == "all" {
        for (name, ..) in EXPERIMENTS {
            run(name, scale, json);
        }
        return;
    }
    match compute(which, scale) {
        Some((title, rows)) => print_rows(title, &rows, json),
        None => {
            eprintln!("unknown experiment: {which}");
            std::process::exit(2);
        }
    }
}

/// Runs the selection and writes one collected JSON document (rows +
/// per-experiment and total wall clock) to `path`.
#[allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "measures the wall-clock run time of the sweep by design: this binary drives the \
              simulator but is not driven by it, so host-time reads here cannot perturb a replay"
)]
fn run_to_file(which: &str, scale: ExperimentScale, path: &str) {
    let selection: Vec<&str> = if which == "all" {
        EXPERIMENTS.iter().map(|(name, ..)| *name).collect()
    } else {
        vec![which]
    };
    let total_start = std::time::Instant::now();
    let mut docs = Vec::new();
    for w in selection {
        let start = std::time::Instant::now();
        let Some((title, rows)) = compute(w, scale) else {
            eprintln!("unknown experiment: {w}");
            std::process::exit(2);
        };
        let wall = start.elapsed().as_secs_f64();
        let mut doc = rows_to_json(title, &rows);
        if let serde_json::Value::Object(m) = &mut doc {
            m.insert("name".into(), serde_json::Value::String(w.to_string()));
            m.insert(
                "wall_clock_secs".into(),
                serde_json::Number::from_f64(wall)
                    .map(serde_json::Value::Number)
                    .unwrap_or(serde_json::Value::Null),
            );
        }
        docs.push(doc);
    }
    let out = serde_json::json!({
        "scale": if scale == ExperimentScale::Full { "full" } else { "quick" },
        "total_wall_clock_secs": serde_json::Number::from_f64(total_start.elapsed().as_secs_f64())
            .map(serde_json::Value::Number)
            .unwrap_or(serde_json::Value::Null),
        "experiments": docs,
    });
    std::fs::write(path, format!("{out}\n")).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        ExperimentScale::Full
    } else {
        ExperimentScale::Quick
    };
    // `--json` alone streams one JSON document per experiment to stdout;
    // `--json PATH` collects everything (plus wall clocks) into PATH.
    let json_pos = args.iter().position(|a| a == "--json");
    let json_path = json_pos.and_then(|i| {
        args.get(i + 1)
            .filter(|a| {
                !a.starts_with("--")
                    && !EXPERIMENTS.iter().any(|(name, ..)| name == a)
                    && *a != "all"
            })
            .cloned()
    });
    let which = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--")
                && json_path
                    .as_ref()
                    .is_none_or(|_| Some(*i) != json_pos.map(|p| p + 1))
        })
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "all".to_string());
    match json_path {
        Some(path) => run_to_file(&which, scale, &path),
        None => run(&which, scale, json_pos.is_some()),
    }
}
