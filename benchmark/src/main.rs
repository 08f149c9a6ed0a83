//! sfsbench: the repository's benchmark. README.md says what it measures and
//! why; BENCHMARK.json is the contract the driver reads.
//!
//! One process, one thread. The last line of standard output is the result
//! as one JSON object; everything above it is the same result for people.

mod alloc;
mod drive;
mod gen;
mod layers;
mod metrics;
mod oracle;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Def, END_TO_END, PER_LAYER};
use run::{Outcome, Settings};
use serde_json::{json, Map, Value};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: sfsbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] \
[--ops N] [--out PATH] [--trace-out PATH]
       sfsbench --list
  --trace 0   end-to-end metrics (tracing off)
  --trace 1   per-layer metrics (counted + traced repetition, layer drives)
  (neither)   both, one after the other
  --ops N     override the workload's fixed op count (README scaling table)
  --out PATH  append the full report to PATH as one JSON line
  --list      print the workload names (run.sh --all runs each in its own process)";

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    EndToEnd,
    PerLayer,
    Both,
}

struct Cli {
    spec: workloads::Spec,
    seed: u64,
    seconds: u64,
    mode: Mode,
    ops: Option<usize>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut spec = None;
    let (mut seed, mut seconds, mut mode) = (1, 10, Mode::Both);
    let (mut ops, mut out, mut trace_out) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(workloads::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--ops" => ops = Some(number()?.max(1) as usize),
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(Cli {
        spec: spec.ok_or_else(|| USAGE.to_string())?,
        seed,
        seconds,
        mode,
        ops,
        out,
        trace_out,
    })
}

/// The issue's two failure buckets: an op that timed out, or one that came
/// back with anything but the model's outcome.
fn bucket(kind: &str) -> &'static str {
    if kind == "ETIMEDOUT" {
        "timeout"
    } else {
        "wrong-result"
    }
}

fn print_table(title: &str, defs: &[Def], out: &Outcome) {
    println!("-- {title}");
    println!(
        "{:<42} {:>16} {:<7} {:<8} {:<7} bound",
        "metric", "value", "unit", "clock", "better"
    );
    for def in defs {
        let bound = def.bound.map_or("-".to_string(), |b| format!("{b}"));
        println!(
            "{:<42} {:>16.4} {:<7} {:<8} {:<7} {}",
            def.name,
            out.value(def.name),
            def.unit,
            def.clock.label(),
            def.better.label(),
            bound
        );
    }
    println!(
        "repetitions {} (re-run for noise: {}), ops attempted {} (oracle checks included), failed {}",
        out.reps, out.reruns, out.attempted, out.failed
    );
    let per_rep: Vec<String> = out
        .rep_host_kops
        .iter()
        .map(|k| format!("{k:.1}"))
        .collect();
    println!(
        "host_kops (advisory, not a gated metric; see README): best {:.2}, median {:.2}, per repetition {}",
        metrics::best(&out.rep_host_kops, metrics::Better::Higher),
        metrics::median(&out.rep_host_kops),
        per_rep.join(" ")
    );
    for ((class, kind), n) in &out.failures {
        println!("  failed {class}: {n} x {kind} ({})", bucket(kind));
    }
    for line in &out.oracle_examples {
        println!("  oracle: {line}");
    }
    for line in &out.determinism {
        println!("  NOT DETERMINISTIC: {line}");
    }
}

fn print_end_to_end(out: &Outcome) {
    print_table("end to end (tracing off)", END_TO_END, out);
    println!(
        "latency samples {} ({} in the slowest 1 %, {} in the slowest 0.1 %)",
        out.samples,
        out.samples / 100,
        out.samples / 1000
    );
}

fn print_per_layer(out: &Outcome) {
    print_table(
        "per layer (counted and traced repetitions, layer drives)",
        PER_LAYER,
        out,
    );
    if let Some(s) = &out.stages {
        println!(
            "stages: {:.4} + {:.4} + {:.4} + {:.4} = {:.4} us; mean op latency {:.4} us ({} requests)",
            s.issue_to_dispatch_us,
            s.dispatch_to_wal_us,
            s.wal_to_flush_us,
            s.rest_us,
            s.issue_to_dispatch_us + s.dispatch_to_wal_us + s.wal_to_flush_us + s.rest_us,
            s.mean_latency_us,
            s.requests
        );
    }
    println!("-- host-time budget per op (isolated drive cost x count; an estimate)");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>7}",
        "layer", "count/op", "ns each", "ns/op", "share"
    );
    for row in &out.budget {
        println!(
            "{:<18} {:>10.3} {:>10.1} {:>10.1} {:>6.1}%",
            row.layer,
            row.per_op,
            row.ns_each,
            row.ns_per_op(),
            100.0 * row.ns_per_op() / out.host_ns_per_op
        );
    }
    let resid = out.value("server.host_ns_per_op_resid");
    println!(
        "{:<18} {:>10} {:>10} {:>10.1} {:>6.1}%",
        "server+client resid",
        "",
        "",
        resid,
        100.0 * resid / out.host_ns_per_op
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10.1} {:>6.1}%",
        "total = 1e6/host_kops", "", "", out.host_ns_per_op, 100.0
    );
}

fn metrics_json(defs: &[Def], out: &Outcome, into: &mut Map) {
    for def in defs {
        into.insert(
            def.name.to_string(),
            json!({ "value": out.value(def.name), "unit": def.unit }),
        );
    }
}

/// The full report `--out` writes: the catalog entry next to every value,
/// failures by class and kind, and the guards' findings.
fn report_json(cli: &Cli, parts: &[(&[Def], &Outcome)]) -> Value {
    let spec = &cli.spec;
    let mut metrics = Vec::new();
    let mut failures = Vec::new();
    let mut determinism = Vec::new();
    let mut oracle = Vec::new();
    let (mut reps, mut reruns) = (0, 0);
    let mut host_kops = Vec::new();
    for (defs, out) in parts {
        host_kops.extend(out.rep_host_kops.iter().copied());
        for def in *defs {
            metrics.push(json!({
                "name": def.name,
                "value": out.value(def.name),
                "unit": def.unit,
                "clock": def.clock.label(),
                "better": def.better.label(),
                "bound": def.bound,
            }));
        }
        for ((class, kind), n) in &out.failures {
            failures.push(
                json!({ "class": *class, "kind": *kind, "bucket": bucket(kind), "count": *n }),
            );
        }
        determinism.extend(out.determinism.iter().cloned());
        oracle.extend(out.oracle_examples.iter().cloned());
        reps += out.reps;
        reruns += out.reruns;
    }
    json!({
        "workload": spec.name,
        "seed": cli.seed,
        "seconds": cli.seconds,
        "ops_per_repetition": cli.ops.unwrap_or(spec.ops),
        "repetitions": reps,
        "noise_reruns": reruns,
        "host_kops_per_repetition": host_kops,
        "metrics": metrics,
        "failed_ops": failures,
        "oracle_mismatches": oracle,
        "determinism_violations": determinism,
    })
}

/// Runs the workload in the requested mode(s); returns the driver's result
/// object, the full report, and whether every check passed.
fn run_workload(cli: &Cli) -> Result<(Value, Value, bool), String> {
    let spec = &cli.spec;
    let cfg = Settings {
        spec: *spec,
        ops: cli.ops.unwrap_or(spec.ops),
        seed: cli.seed,
        seconds: cli.seconds,
        trace_out: cli.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "benchmark/out/trace-{}-{}.json",
                spec.name, cli.seed
            ))
        }),
    };
    println!(
        "== {} seed {} ({} ops per repetition, {} in flight, {} clients, {})",
        spec.name,
        cfg.seed,
        cfg.ops,
        spec.in_flight,
        spec.clients,
        spec.system.label()
    );
    let e2e = (cli.mode != Mode::PerLayer).then(|| run::end_to_end(&cfg));
    if let Some(out) = &e2e {
        print_end_to_end(out);
    }
    let layer = if cli.mode != Mode::EndToEnd {
        let out = run::per_layer(&cfg)
            .map_err(|e| format!("writing {}: {e}", cfg.trace_out.display()))?;
        print_per_layer(&out);
        println!("trace written to {}", cfg.trace_out.display());
        Some(out)
    } else {
        None
    };

    let mut metrics = Map::new();
    let mut parts: Vec<(&[Def], &Outcome)> = Vec::new();
    if let Some(out) = &e2e {
        metrics_json(END_TO_END, out, &mut metrics);
        parts.push((END_TO_END, out));
    }
    if let Some(out) = &layer {
        metrics_json(PER_LAYER, out, &mut metrics);
        parts.push((PER_LAYER, out));
    }
    let correct = parts.iter().all(|(_, o)| o.correct());
    let attempted: u64 = parts.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = parts.iter().map(|(_, o)| o.failed).sum();
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    Ok((result, report_json(cli, &parts), correct))
}

/// Appends `report` to `path` as one line, so that `run.sh --all --out PATH`
/// collects one line per workload.
fn append_report(path: &std::path::Path, report: &Value) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{}",
        serde_json::to_string(report).expect("report serializes")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        for spec in &workloads::ALL {
            println!("{}", spec.name);
        }
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let (result, report, correct) = match run_workload(&cli) {
        Ok(done) => done,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &cli.out {
        if let Err(e) = append_report(path, &report) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // The driver reads the last line of standard output.
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: an op failed, an output was wrong, or a repetition did not replay exactly"
        );
        ExitCode::FAILURE
    }
}
