//! Where a warm simulated operation allocates: an allocation-site profiler.
//!
//! Runs `tests/alloc_budget.rs`'s deployment and driver (both in
//! `tests/support/alloc_deployment.rs`: 4 servers, 1 client, `/d` preloaded
//! with `2 * OPS` files `f0`, `f1`, …, `OPS` warm-up operations and then
//! `OPS` counted ones). Its counting allocator takes a backtrace of every
//! allocation the driving thread makes while the counted ones run. Each is
//! charged to its first frame in this workspace, and every site is printed
//! with its allocations per operation, most first. The split is exact, and
//! its total is the budget test's count.
//!
//! ```sh
//! CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!     cargo run --release --example alloc_sites -- [create|stat|cfs-create]
//! ```
//!
//! A site is named by function, file and line when the build carries line
//! tables. The root manifest's release profile (`debug = true`) does;
//! `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` keeps only what the
//! profiler reads and links faster. Without line tables a site is named by
//! its function alone.
//!
//! The profiler's own allocations (the backtrace and the trace list) are not
//! counted: counting them would charge every backtrace's allocations to
//! whichever site the next trace lands on.

#[path = "../tests/support/alloc_deployment.rs"]
mod deployment;

use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use deployment::{paths, warm_then_count, Counted, Observe, OPS};
use switchfs::client::LibFs;
use switchfs::core::SystemKind;

thread_local! {
    /// True while the counted operations run.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// True while the profiler itself allocates.
    static IN_PROFILER: Cell<bool> = const { Cell::new(false) };
    static TRACES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

/// Takes a backtrace of each allocation of the driving thread while the
/// counted operations run.
struct Tracing;

impl Observe for Tracing {
    fn allocated(_bytes: usize) {
        // `try_with`: an allocation during thread teardown is not counted.
        if !COUNTING.try_with(Cell::get).unwrap_or(false)
            || IN_PROFILER.try_with(Cell::get).unwrap_or(true)
        {
            return;
        }
        IN_PROFILER.with(|p| p.set(true));
        let trace = Backtrace::force_capture();
        TRACES.with(|t| t.borrow_mut().push(trace));
        IN_PROFILER.with(|p| p.set(false));
    }
}

#[global_allocator]
static GLOBAL: Counted<Tracing> = Counted::new();

/// The first frame of `trace` in this workspace, outside this file: its
/// function, with its file and line when the build has line tables.
fn site(trace: &Backtrace) -> String {
    let text = trace.to_string();
    let mut lines = text.lines().map(str::trim).peekable();
    let workspace = env!("CARGO_MANIFEST_DIR");
    let mut first_named = None;
    while let Some(line) = lines.next() {
        // A frame is `N: function`, optionally followed by `at file:line:col`.
        let Some((_, function)) = line.split_once(": ") else {
            continue;
        };
        let at = lines
            .next_if(|l| l.starts_with("at "))
            .map(|l| l.trim_start_matches("at "));
        match at {
            Some(path) => {
                let path = path.strip_prefix(workspace).unwrap_or(path);
                let path = path.trim_start_matches("./").trim_start_matches('/');
                if path.starts_with("crates/") || path.starts_with("src/") {
                    let file_line = path.rsplit_once(':').map_or(path, |(fl, _col)| fl);
                    return format!("{function}  {file_line}");
                }
            }
            None if first_named.is_none() && function.starts_with("switchfs") => {
                first_named = Some(function.to_string());
            }
            None => {}
        }
    }
    first_named.unwrap_or_else(|| "(no workspace frame)".to_string())
}

fn main() {
    let workload = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "create".to_string());
    let (system, stat) = match workload.as_str() {
        "create" => (SystemKind::SwitchFs, false),
        "stat" => (SystemKind::SwitchFs, true),
        "cfs-create" => (SystemKind::EmulatedCfs, false),
        other => {
            eprintln!("unknown workload {other:?}; workloads: create, stat, cfs-create");
            std::process::exit(2);
        }
    };
    let prefix = if stat { "/d/f" } else { "/d/n" };
    let start = || COUNTING.with(|c| c.set(true));
    let stop = |()| COUNTING.with(|c| c.set(false));
    let op = move |client: Rc<LibFs>, path: String| async move {
        if stat {
            client.stat(&path).await.expect("stat");
        } else {
            client.create(&path).await.expect("create");
        }
    };
    warm_then_count(system, paths(prefix), op, start, stop);

    let traces = TRACES.with(|t| std::mem::take(&mut *t.borrow_mut()));
    let mut sites: BTreeMap<String, usize> = BTreeMap::new();
    for trace in &traces {
        *sites.entry(site(trace)).or_default() += 1;
    }
    let mut sites: Vec<(String, usize)> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let per_op = |n: usize| n as f64 / OPS as f64;
    let total = traces.len();
    println!(
        "{workload} on {}: {OPS} warm ops, {total} allocations ({:.2} per op)",
        system.label(),
        per_op(total),
    );
    println!("{:>7}  {:>6}  site", "per op", "share");
    for (site, n) in &sites {
        let share = 100.0 * *n as f64 / total.max(1) as f64;
        println!("{:>7.3}  {share:>5.1}%  {site}", per_op(*n));
    }
}
