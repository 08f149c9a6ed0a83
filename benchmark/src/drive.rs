//! One repetition: build a fresh cluster, preload, drive the generated items
//! in a closed loop on `Cluster.sim`, check the outputs.
//!
//! Everything here looks at the program from outside: latencies are spans
//! around `LibFs` calls, counts are deltas of public accessors across the
//! driver phase.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use switchfs::client::LibFs;
use switchfs::core::{Cluster, ClusterConfig};
use switchfs::obs::{MetricValue, TraceEvent};
use switchfs::proto::FsError;
use switchfs::simnet::sync::{Notify, Semaphore};
use switchfs::workloads::OpKind;

use crate::alloc;
use crate::gen::{self, Input, Item, PRELOAD_PREFIX};
use crate::oracle::{self, OracleReport};
use crate::trace::HostSpans;
use crate::workloads::Spec;

/// The span the driver records around one `LibFs` call, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRec {
    pub start_ns: u64,
    pub end_ns: u64,
    /// `None`: the op returned the model's outcome. Otherwise the error name
    /// (`ETIMEDOUT` is a timeout, anything else a wrong result).
    pub fail: Option<&'static str>,
}

pub const WRONG_RESULT: &str = "wrong-result";

/// Named counts, all deltas across the driver phase unless the name says
/// otherwise.
pub type Counts = BTreeMap<String, u64>;

/// Host seconds of each phase of a repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostPhases {
    pub generate_s: f64,
    pub cluster_new_s: f64,
    pub preload_s: f64,
    pub drive_s: f64,
    pub verify_s: f64,
    /// On-CPU share of the drive phase's wall time.
    pub cpu_share: f64,
}

impl HostPhases {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.cluster_new_s + self.preload_s
    }
}

pub struct Rep {
    pub input: Rc<Input>,
    /// Metadata servers of the deployment.
    pub servers: usize,
    /// Host span of the driver phase: the parent of every op span.
    pub drive_span: u32,
    pub recs: Vec<OpRec>,
    /// Virtual time from the first issue to the last completion.
    pub sim_elapsed_ns: u64,
    pub counts: Counts,
    pub alloc: alloc::Cost,
    pub host: HostPhases,
    pub oracle: OracleReport,
    /// Flight-recorder dump of a traced repetition.
    pub events: Option<Vec<TraceEvent>>,
}

impl Rep {
    /// Completed client ops per wall second of the driver phase, thousands.
    pub fn host_kops(&self) -> f64 {
        self.recs.len() as f64 / self.host.drive_s / 1e3
    }
}

/// Runs one repetition under a host span named `label`. `trace_capacity` of
/// `Some` makes it the traced one.
pub fn repetition(
    label: &'static str,
    spec: &Spec,
    ops: usize,
    seed: u64,
    trace_capacity: Option<usize>,
    spans: &mut HostSpans,
) -> Rep {
    let base_live = alloc::live();
    let mut host = HostPhases::default();
    let rep_span = spans.open(label, 0);

    let (input, s) = spans.time("generate", rep_span, || {
        Rc::new(gen::generate(spec, ops, seed))
    });
    host.generate_s = s;

    let (mut cluster, s) = spans.time("cluster-new", rep_span, || {
        let mut cfg = ClusterConfig::paper_default(spec.system);
        cfg.clients = spec.clients;
        cfg.trace_capacity = trace_capacity;
        Cluster::new(cfg)
    });
    host.cluster_new_s = s;

    ((), host.preload_s) = spans.time("preload", rep_span, || {
        for dir in &input.dirs {
            cluster.preload_dir(dir);
        }
        for dir in &input.dirs {
            cluster.preload_files(dir, PRELOAD_PREFIX, input.files_per_dir);
        }
    });

    let before = snapshot(&cluster);
    let cpu0 = on_cpu_ns();
    let mark = alloc::mark();
    let drive_span = spans.open("drive", rep_span);
    let (recs, sim_elapsed_ns) = drive(&cluster, spec.in_flight, input.clone());
    host.drive_s = spans.close(drive_span);
    let mut cost = alloc::since(mark);
    cost.peak_live = cost.peak_live.saturating_sub(base_live);
    host.cpu_share = match (cpu0, on_cpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / 1e9 / host.drive_s,
        // No schedstat (not Linux): the noise guard cannot tell, so it passes.
        _ => 1.0,
    };
    let after = snapshot(&cluster);

    let mut counts: Counts = after
        .iter()
        .map(|(name, v)| (name.clone(), v - before.get(name).copied().unwrap_or(0)))
        .collect();
    counts.insert(
        "switch.occupancy_end".into(),
        cluster.switch_occupancy().unwrap_or(0) as u64,
    );

    let (oracle, s) = spans.time("verify", rep_span, || oracle::check(&cluster, &input));
    host.verify_s = s;

    let events = trace_capacity.map(|_| cluster.obs().recorder().dump());
    spans.close(rep_span);
    Rep {
        input,
        servers: cluster.config().servers,
        drive_span,
        recs,
        sim_elapsed_ns,
        counts,
        alloc: cost,
        host,
        oracle,
        events,
    }
}

/// Every public counter of the deployment, by name.
fn snapshot(cluster: &Cluster) -> Counts {
    let mut out: Counts = cluster
        .metrics_snapshot()
        .snapshot()
        .into_iter()
        .filter_map(|(name, value)| match value {
            MetricValue::Counter(v) => Some((name, v)),
            _ => None,
        })
        .collect();
    // `run_until(now)` advances nothing; it is the public way to read the
    // executor's running totals.
    let run = cluster.sim.run_until(cluster.sim.now());
    out.insert("simnet.polls".into(), run.polls);
    out.insert("simnet.tasks".into(), run.tasks_spawned);
    let (mut hits, mut misses, mut invalidations) = (0, 0, 0);
    for client in cluster.clients() {
        let (h, m, i) = client.cache_counters();
        hits += h;
        misses += m;
        invalidations += i;
    }
    out.insert("client.cache_hits".into(), hits);
    out.insert("client.cache_misses".into(), misses);
    out.insert("client.cache_invalidations".into(), invalidations);
    out
}

/// Closed loop: `in_flight` `LibFs` calls outstanding, item `i` on client
/// `i % clients`, issued in item order; an item whose dependency is still
/// running holds the issue loop until it completes.
fn drive(cluster: &Cluster, in_flight: usize, input: Rc<Input>) -> (Vec<OpRec>, u64) {
    let n = input.items.len();
    let recs: Rc<RefCell<Vec<Option<OpRec>>>> = Rc::new(RefCell::new(vec![None; n]));
    let handle = cluster.sim.handle();
    let clients: Vec<Rc<LibFs>> = cluster.clients().to_vec();
    let sem = Semaphore::new(in_flight);
    let dep_done = Notify::new();
    let awaited: Rc<Cell<Option<u32>>> = Rc::new(Cell::new(None));

    let recs_main = recs.clone();
    let start_ns = cluster.block_on(async move {
        let start_ns = handle.now().as_nanos();
        for i in 0..n {
            let permit = sem.acquire().await;
            if let Some(dep) = input.items[i].dep {
                while recs_main.borrow()[dep as usize].is_none() {
                    awaited.set(Some(dep));
                    dep_done.notified().await;
                }
                awaited.set(None);
            }
            let client = clients[i % clients.len()].clone();
            let (input, recs, h) = (input.clone(), recs_main.clone(), handle.clone());
            let (awaited, dep_done) = (awaited.clone(), dep_done.clone());
            handle.spawn(async move {
                let _permit = permit;
                let start_ns = h.now().as_nanos();
                let fail = run_item(&client, &input.items[i]).await;
                recs.borrow_mut()[i] = Some(OpRec {
                    start_ns,
                    end_ns: h.now().as_nanos(),
                    fail,
                });
                if awaited.get() == Some(i as u32) {
                    dep_done.notify_one();
                }
            });
        }
        let _all = sem.acquire_many(in_flight).await;
        start_ns
    });

    let recs: Vec<OpRec> = recs
        .borrow()
        .iter()
        .map(|r| r.expect("block_on returned before every op completed"))
        .collect();
    let end_ns = recs.iter().map(|r| r.end_ns).max().unwrap_or(start_ns);
    (recs, end_ns - start_ns)
}

/// Executes one item; `None` when the result is the model's outcome.
async fn run_item(client: &LibFs, item: &Item) -> Option<&'static str> {
    let size_ok = |got: u64| item.expect_size.is_none_or(|want| want == got);
    let path = item.path.as_str();
    let as_expected: Result<bool, FsError> = match item.kind {
        OpKind::Create => client.create(path).await.map(|a| !a.is_dir()),
        OpKind::Delete => client.delete(path).await.map(|()| true),
        OpKind::Stat => client.stat(path).await.map(|a| !a.is_dir()),
        OpKind::Open => client.open(path).await.map(|a| !a.is_dir()),
        OpKind::Close => client.close(path).await.map(|()| true),
        OpKind::Chmod => client.chmod(path, 0o700).await.map(|()| true),
        OpKind::Statdir => client
            .statdir(path)
            .await
            .map(|a| a.is_dir() && size_ok(a.size)),
        OpKind::Readdir => client
            .readdir(path)
            .await
            .map(|(a, list)| size_ok(a.size) && size_ok(list.len() as u64)),
        OpKind::Rename => {
            let dst = item.dst.as_deref().expect("generated renames carry dst");
            client.rename(path, dst).await.map(|()| true)
        }
        other => unreachable!("the generator never emits {}", other.name()),
    };
    match as_expected {
        Ok(true) => None,
        Ok(false) => Some(WRONG_RESULT),
        Err(e) => Some(e.name()),
    }
}

/// Nanoseconds this process has spent on a CPU, from `/proc/self/schedstat`.
fn on_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}
