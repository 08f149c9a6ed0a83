//! Where a warm simulated operation allocates: an allocation-site profiler.
//!
//! Builds the small deployment `tests/alloc_budget.rs` measures (4 servers,
//! 1 client, `/d` preloaded with `2 * OPS` files `f0`, `f1`, …), runs `OPS`
//! warm-up operations and then `OPS` counted ones. A counting global
//! allocator takes a backtrace of every allocation the driving thread makes
//! while the counted ones run. Each is charged to its first frame in this
//! workspace, and every site is printed with its allocations per operation,
//! most first. The split is exact, and its total is the budget test's count.
//! This file mirrors that test's `empty_dir`, `cluster`, `OPS` and realloc
//! rule; change both together.
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use switchfs::client::LibFs;
use switchfs::core::{Cluster, ClusterConfig, SystemKind};

/// Operations counted (after as many warm-up operations), as in
/// `tests/alloc_budget.rs`.
const OPS: usize = 64;

thread_local! {
    /// True while the counted operations run.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// True while the profiler itself allocates.
    static IN_PROFILER: Cell<bool> = const { Cell::new(false) };
    static TRACES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

struct Tracing;

impl Tracing {
    /// Takes a backtrace of one allocation of the driving thread while the
    /// counted operations run.
    fn note(&self) {
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

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the profiler never influences the returned memory.
unsafe impl GlobalAlloc for Tracing {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One allocation, like the alloc + copy + dealloc it stands for (as
        // `tests/alloc_budget.rs` and the benchmark count it).
        self.note();
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracing = Tracing;

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
    let mut cfg = ClusterConfig::paper_default(system);
    cfg.servers = 4;
    cfg.clients = 1;
    let mut cluster = Cluster::new(cfg);
    cluster.preload_dir("/d");
    cluster.preload_files("/d", "f", 2 * OPS);
    let client: Rc<LibFs> = cluster.client(0);

    // The paths are built before anything is counted, as the budgets do.
    let prefix = if stat { "/d/f" } else { "/d/n" };
    let paths: Vec<String> = (0..2 * OPS).map(|i| format!("{prefix}{i}")).collect();
    cluster.block_on(async move {
        for (i, path) in paths.iter().enumerate() {
            if i == OPS {
                COUNTING.with(|c| c.set(true));
            }
            if stat {
                client.stat(path).await.expect("stat");
            } else {
                client.create(path).await.expect("create");
            }
        }
        COUNTING.with(|c| c.set(false));
    });

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
