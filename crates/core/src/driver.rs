//! Closed-loop workload execution and measurement.
//!
//! The driver reproduces the paper's load generator: clients keep a fixed
//! number of requests in flight (up to 512 in §7.2.1; 32 / 256 in §7.4),
//! every completed operation is timed, and the result is a throughput figure
//! plus per-operation latency percentiles — the raw material of Fig. 12–19.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use switchfs_proto::FsResult;
use switchfs_simnet::sync::Semaphore;
use switchfs_simnet::{LatencyHistogram, SimDuration, SimTime};
use switchfs_workloads::{OpKind, WorkItem};

use crate::cluster::Cluster;

/// Per-operation-kind measurements.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Operations completed.
    pub count: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 90th percentile latency in microseconds.
    pub p90_us: f64,
    /// 99th percentile latency in microseconds.
    pub p99_us: f64,
}

/// The result of running one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Operations completed (including errors).
    pub ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Virtual time the workload took.
    pub elapsed: SimDuration,
    /// Overall throughput in Kops/s.
    pub kops: f64,
    /// Overall latency distribution.
    pub latency: LatencyHistogram,
    /// Per-operation breakdown.
    pub per_op: BTreeMap<&'static str, OpReport>,
}

impl WorkloadReport {
    /// Mean latency across all operations, in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean().as_micros_f64()
    }

    /// The report of one operation kind, if any of them ran.
    pub fn op(&self, kind: OpKind) -> Option<&OpReport> {
        self.per_op.get(kind.name())
    }
}

#[derive(Default)]
struct Collector {
    start: Option<SimTime>,
    end: SimTime,
    latency: LatencyHistogram,
    per_op: BTreeMap<&'static str, (LatencyHistogram, u64, u64)>,
}

impl Cluster {
    /// Runs `items` with `in_flight` concurrent requests spread round-robin
    /// across the clients. `data_latency` models the data-plane access that
    /// follows `read`/`write` items in the end-to-end workloads (Fig. 19).
    pub fn run_workload(
        &self,
        items: Vec<WorkItem>,
        in_flight: usize,
        data_latency: Option<SimDuration>,
    ) -> WorkloadReport {
        let collector: Rc<RefCell<Collector>> = Rc::new(RefCell::new(Collector::default()));
        let collector_main = collector.clone();
        let master_clients = self.clients().to_vec();
        let master_sem = Semaphore::new(in_flight.max(1));
        let master_handle = self.sim.handle();
        let driver = async move {
            {
                let mut c = collector_main.borrow_mut();
                let now = master_handle.now();
                c.start = Some(now);
                c.end = now;
            }
            for (i, item) in items.into_iter().enumerate() {
                let permit = master_sem.acquire().await;
                let client = master_clients[i % master_clients.len()].clone();
                let collector = collector_main.clone();
                let h = master_handle.clone();
                master_handle.spawn(async move {
                    let _permit = permit;
                    let t0 = h.now();
                    let ok = run_item(&client, &item, data_latency, &h).await.is_ok();
                    let t1 = h.now();
                    let mut c = collector.borrow_mut();
                    let lat = t1.duration_since(t0);
                    c.latency.record(lat);
                    c.end = t1;
                    let entry = c
                        .per_op
                        .entry(item.kind.name())
                        .or_insert_with(|| (LatencyHistogram::new(), 0, 0));
                    entry.0.record(lat);
                    entry.1 += 1;
                    if !ok {
                        entry.2 += 1;
                    }
                });
            }
            // Wait for every in-flight operation to finish.
            let _all = master_sem.acquire_many(in_flight.max(1)).await;
        };
        self.block_on(driver);

        let collector = Rc::try_unwrap(collector)
            .ok()
            .expect("every driver task has finished")
            .into_inner();
        let start = collector.start.unwrap_or(SimTime::ZERO);
        let elapsed = collector.end.duration_since(start);
        let ops = collector.latency.count() as u64;
        let mut per_op = BTreeMap::new();
        let mut errors = 0;
        for (name, (mut hist, count, errs)) in collector.per_op {
            errors += errs;
            per_op.insert(
                name,
                OpReport {
                    count,
                    errors: errs,
                    mean_us: hist.mean().as_micros_f64(),
                    p50_us: hist.percentile(50.0).as_micros_f64(),
                    p90_us: hist.percentile(90.0).as_micros_f64(),
                    p99_us: hist.percentile(99.0).as_micros_f64(),
                },
            );
        }
        let kops = if elapsed.as_secs_f64() > 0.0 {
            ops as f64 / elapsed.as_secs_f64() / 1e3
        } else {
            0.0
        };
        WorkloadReport {
            ops,
            errors,
            elapsed,
            kops,
            latency: collector.latency,
            per_op,
        }
    }
}

/// Executes one work item on a client and returns the call's outcome. This
/// is the one place a [`WorkItem`] becomes a [`LibFs`](switchfs_client::LibFs)
/// call: the measured workloads and the chaos harness's scripts both run
/// through it. `data_latency` models the data-plane transfer that follows a
/// `read` / `write` item's open.
pub async fn run_item(
    client: &switchfs_client::LibFs,
    item: &WorkItem,
    data_latency: Option<SimDuration>,
    handle: &switchfs_simnet::SimHandle,
) -> FsResult<()> {
    let path = item.path.as_str();
    match item.kind {
        OpKind::Create => client.create(path).await.map(drop),
        OpKind::Delete => client.delete(path).await,
        OpKind::Mkdir => client.mkdir(path).await.map(drop),
        OpKind::Rmdir => client.rmdir(path).await,
        OpKind::Stat => client.stat(path).await.map(drop),
        OpKind::Statdir => client.statdir(path).await.map(drop),
        OpKind::Readdir => client.readdir(path).await.map(drop),
        OpKind::Open => client.open(path).await.map(drop),
        OpKind::Close => client.close(path).await,
        OpKind::Chmod => client.chmod(path, 0o700).await,
        OpKind::Rename => {
            let dst = item
                .dst
                .clone()
                .unwrap_or_else(|| format!("{path}.renamed"));
            client.rename(path, &dst).await
        }
        OpKind::Read | OpKind::Write => {
            // Data access: open the file (metadata path) then model the data
            // transfer to/from a data node with a fixed latency, as the
            // paper's end-to-end workloads do with small (<256 KB) objects.
            let opened = client.open(path).await.map(drop);
            if let Some(lat) = data_latency {
                handle.sleep(lat).await;
            }
            opened
        }
    }
}
