//! End-to-end chaos runs: generate a plan, drive workload + nemesis, probe
//! the final namespace, check consistency, and digest the whole run for
//! bit-identical replay verification.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use switchfs_client::LibFs;
use switchfs_core::driver::run_item;
use switchfs_core::{Cluster, ClusterConfig, SystemKind};
use switchfs_proto::FsError;
use switchfs_simnet::{SimDuration, SimHandle};
use switchfs_workloads::{OpKind, WorkItem};

use crate::history::{check, FinalState, History, HistoryEvent, Listing};
use crate::nemesis::{run_nemesis, NemesisLog};
use crate::plan::{FaultPlan, PlanKind};

/// Shape of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Which system to deploy (§4: the harness runs on every `SystemKind`).
    pub system: SystemKind,
    /// Run seed: drives the cluster, the fault plan and the op scripts.
    pub seed: u64,
    /// Fault family to generate the plan from.
    pub kind: PlanKind,
    /// Metadata servers.
    pub servers: usize,
    /// Workload clients (each runs a sequential script on a private
    /// namespace).
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Virtual microseconds the fault window spans.
    pub horizon_us: u64,
    /// Record causal trace events into the flight recorder. Tracing never
    /// touches protocol state: the run digest is bit-identical either way
    /// (pinned by the `tracing_does_not_perturb_the_run_digest` conformance
    /// test), so the harness keeps it on by default and drains the recorder
    /// into the failure artifact when a checker trips.
    pub trace: bool,
}

impl ChaosConfig {
    /// A small default run: 4 servers, 2 clients, 40 ops each, 60 ms of
    /// virtual fault window.
    pub fn new(system: SystemKind, kind: PlanKind, seed: u64) -> ChaosConfig {
        ChaosConfig {
            system,
            seed,
            kind,
            servers: 4,
            clients: 2,
            ops_per_client: 40,
            horizon_us: 60_000,
            trace: true,
        }
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct ChaosReport {
    /// The injected fault plan (serialize with
    /// [`FaultPlan::to_json`] to reproduce the run).
    pub plan: FaultPlan,
    /// The recorded operation history.
    pub history: History,
    /// Consistency violations (empty ⇔ the run passed).
    pub violations: Vec<String>,
    /// What the nemesis did: recoveries, switch reboots, shards moved,
    /// decommissions and torn WAL tails.
    pub nemesis: NemesisLog,
    /// Prepared transactions still unresolved after the final settle (must
    /// be zero; also surfaced as a violation).
    pub stranded_prepared: usize,
    /// Flight-recorder contents at the end of the run (empty when tracing
    /// was off): every retained trace event, ordered by node then FIFO.
    /// Deliberately *not* part of the digest — the digest must be identical
    /// with tracing on and off.
    pub flight_recorder: Vec<switchfs_obs::TraceEvent>,
    /// Stable-ordered unified metrics snapshot of the final cluster state.
    /// Like the recorder, not part of the digest (it is derived from the
    /// same counters the digest already covers, plus obs-only ones).
    pub metrics: switchfs_obs::MetricsRegistry,
    /// Virtual time at the end of the run, ns.
    pub final_now_ns: u64,
    /// FNV-1a digest over the plan, history, final namespace and cluster
    /// statistics: two same-seed runs must produce the same digest.
    pub digest: u64,
}

impl ChaosReport {
    /// True when the consistency checker found nothing.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One script step: think, then act. The think times are pre-generated so
/// the script *spans the fault horizon* — without them the whole workload
/// would finish in a few healthy milliseconds before the first fault lands.
#[derive(Debug, Clone)]
struct ScriptStep {
    think_us: u64,
    item: WorkItem,
}

fn client_dir(c: usize) -> String {
    format!("/chaos/c{c}")
}

/// Generates client `c`'s sequential script (seed-deterministic).
fn generate_script(cfg: &ChaosConfig, c: usize) -> Vec<ScriptStep> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x00c1_1e47 + c as u64 * 0x9e37_79b9));
    let dir = client_dir(c);
    let files = 8usize;
    let subdirs = 3usize;
    let mut rename_counter = 0usize;
    let mut renamed: Vec<String> = Vec::new();
    // Mean think time spreads the ops across the whole fault horizon.
    let mean_think = (cfg.horizon_us / cfg.ops_per_client.max(1) as u64).max(1);
    let mut out = Vec::with_capacity(cfg.ops_per_client);
    for _ in 0..cfg.ops_per_client {
        let f = format!("{dir}/f{}", rng.gen_range(0..files));
        let d = format!("{dir}/d{}", rng.gen_range(0..subdirs));
        let roll = rng.gen_range(0..100u32);
        let item = match roll {
            0..=29 => WorkItem::new(OpKind::Create, f),
            30..=44 => WorkItem::new(OpKind::Delete, f),
            45..=56 => {
                let src = if !renamed.is_empty() && rng.gen_bool(0.3) {
                    renamed[rng.gen_range(0..renamed.len())].clone()
                } else {
                    f
                };
                let dst = format!("{dir}/r{rename_counter}");
                rename_counter += 1;
                renamed.push(dst.clone());
                WorkItem::rename(src, dst)
            }
            57..=62 => WorkItem::new(OpKind::Mkdir, d),
            63..=67 => WorkItem::new(OpKind::Rmdir, d),
            68..=79 => {
                let p = if !renamed.is_empty() && rng.gen_bool(0.3) {
                    renamed[rng.gen_range(0..renamed.len())].clone()
                } else {
                    f
                };
                WorkItem::new(OpKind::Stat, p)
            }
            80..=87 => WorkItem::new(OpKind::Statdir, dir.clone()),
            88..=95 => WorkItem::new(OpKind::Readdir, dir.clone()),
            _ => WorkItem::new(OpKind::Chmod, f),
        };
        out.push(ScriptStep {
            think_us: rng.gen_range(0..mean_think * 2),
            item,
        });
    }
    out
}

async fn run_script(
    c: usize,
    client: Rc<LibFs>,
    script: Vec<ScriptStep>,
    history: Rc<RefCell<History>>,
    handle: SimHandle,
) {
    for (idx, step) in script.into_iter().enumerate() {
        if step.think_us > 0 {
            handle.sleep(SimDuration::micros(step.think_us)).await;
        }
        let start_ns = handle.now().as_nanos();
        let outcome = run_item(&client, &step.item, None, &handle).await;
        let end_ns = handle.now().as_nanos();
        history.borrow_mut().record(HistoryEvent {
            client: c,
            idx,
            item: step.item,
            start_ns,
            end_ns,
            outcome,
        });
    }
}

/// Probes the final state of one path through a client.
async fn probe_final(client: &Rc<LibFs>, path: &str) -> FinalState {
    match client.stat(path).await {
        Ok(a) if a.is_dir() => FinalState::Dir,
        Ok(_) => FinalState::File,
        Err(_) => match client.statdir(path).await {
            Ok(_) => FinalState::Dir,
            Err(FsError::NotFound) => FinalState::Missing,
            Err(_) => FinalState::Unprobed,
        },
    }
}

/// FNV-1a, used as the run digest (no std `RandomState` anywhere near the
/// replay check).
fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for b in bytes {
        *digest ^= *b as u64;
        *digest = digest.wrapping_mul(PRIME);
    }
}

/// Runs one chaos scenario end to end and returns its report.
pub fn run_chaos(cfg: ChaosConfig) -> ChaosReport {
    let plan = FaultPlan::generate(cfg.kind, cfg.seed, cfg.servers, cfg.horizon_us);
    let mut cluster_cfg = ClusterConfig::paper_default(cfg.system);
    cluster_cfg.servers = cfg.servers;
    cluster_cfg.clients = cfg.clients;
    cluster_cfg.seed = cfg.seed;
    cluster_cfg.trace_capacity = cfg.trace.then_some(switchfs_obs::DEFAULT_RING_CAPACITY);
    let mut cluster = Cluster::new(cluster_cfg);

    // Per-client private namespaces, preloaded so setup cannot fail — and
    // checkpointed, so the preloads survive injected crashes (preloading
    // bypasses the WAL).
    cluster.preload_dir("/chaos");
    for c in 0..cfg.clients {
        cluster.preload_dir(&client_dir(c));
    }
    cluster.checkpoint_all();

    // Membership plans provision the standby server up front (it owns no
    // shards until the scheduled rebalance migrates a fair share to it,
    // live, mid-faults).
    if plan
        .events
        .iter()
        .any(|e| matches!(e.fault, crate::plan::Fault::RebalanceOntoNewServer))
    {
        cluster.add_server();
    }

    let control = cluster.control();
    let clients: Vec<Rc<LibFs>> = cluster.clients().to_vec();
    let history = Rc::new(RefCell::new(History::default()));
    let nemesis_log = Rc::new(RefCell::new(NemesisLog::default()));
    let scripts: Vec<Vec<ScriptStep>> =
        (0..cfg.clients).map(|c| generate_script(&cfg, c)).collect();

    // Phase 1: workload + nemesis, concurrently, inside one simulation run.
    {
        let plan = plan.clone();
        let history = history.clone();
        let log = nemesis_log.clone();
        cluster.block_on(async move {
            let h = control.sim().clone();
            let nem = h.spawn_with_result(run_nemesis(control, plan, log));
            let mut joins = Vec::new();
            for (c, script) in scripts.into_iter().enumerate() {
                let client = clients[c % clients.len()].clone();
                let history = history.clone();
                let hh = h.clone();
                joins.push(h.spawn_with_result(async move {
                    run_script(c, client, script, history, hh).await
                }));
            }
            for j in joins {
                j.join().await;
            }
            nem.join().await;
        });
    }

    // Phase 2: quiesce. Long enough for proactive aggregation to drain every
    // change-log and for the prepared-transaction sweep (threshold 256 ×
    // request timeout) to resolve anything the faults stranded.
    let timeout = cluster.config().cost_model().request_timeout;
    let prepared = |cluster: &Cluster| -> usize {
        cluster
            .servers()
            .iter()
            .map(|s| s.tables().prepared_txns)
            .sum()
    };
    cluster.settle(timeout * 300 + SimDuration::millis(5));
    let mut stranded_prepared = prepared(&cluster);
    if stranded_prepared > 0 {
        // One more sweep window: a resolution may itself have been unlucky.
        cluster.settle(timeout * 300);
        stranded_prepared = prepared(&cluster);
    }

    // Phase 3: observe the settled namespace — the final state of every path
    // the history touched, then each client directory's listing.
    let mut paths: BTreeSet<String> = BTreeSet::new();
    for ev in &history.borrow().events {
        paths.insert(ev.item.path.clone());
        if let Some(d) = &ev.item.dst {
            paths.insert(d.clone());
        }
    }
    let finals: BTreeMap<String, FinalState> = {
        let prober = cluster.client(0);
        let paths: Vec<String> = paths.iter().cloned().collect();
        cluster.block_on(async move {
            let mut out = BTreeMap::new();
            for p in paths {
                let st = probe_final(&prober, &p).await;
                out.insert(p, st);
            }
            out
        })
    };

    let listings: Vec<(String, Listing)> = (0..cfg.clients)
        .map(|c| {
            let dir = client_dir(c);
            let prober = cluster.client(0);
            let path = dir.clone();
            let listing = cluster.block_on(async move {
                let (attrs, entries) = prober.readdir(&path).await?;
                let mut names: Vec<String> = entries.iter().map(|e| e.name.to_string()).collect();
                names.sort();
                Ok((attrs.size, names))
            });
            (dir, listing)
        })
        .collect();

    // Phase 4: the verdict over what the run observed.
    let history = history.take();
    let preloaded: Vec<String> = std::iter::once("/chaos".to_string())
        .chain((0..cfg.clients).map(client_dir))
        .collect();
    let violations = check(&history, &preloaded, &finals, &listings, stranded_prepared);

    // Digest for bit-identical replay verification.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut digest, plan.to_json().as_bytes());
    for ev in &history.events {
        fnv1a(&mut digest, format!("{ev:?}").as_bytes());
    }
    for (p, st) in &finals {
        fnv1a(&mut digest, format!("{p}={st:?}").as_bytes());
    }
    fnv1a(
        &mut digest,
        format!("{:?}", cluster.total_server_stats()).as_bytes(),
    );
    let final_now_ns = cluster.sim.now().as_nanos();
    fnv1a(&mut digest, &final_now_ns.to_le_bytes());

    ChaosReport {
        plan,
        history,
        violations,
        nemesis: nemesis_log.take(),
        stranded_prepared,
        flight_recorder: cluster.obs().recorder().dump(),
        metrics: cluster.metrics_snapshot(),
        final_now_ns,
        digest,
    }
}

/// Runs the same configuration twice and verifies the digests match
/// (same-seed-same-plan bit-identical replay). Returns the first report and
/// whether the replay matched.
pub fn verify_replay(cfg: ChaosConfig) -> (ChaosReport, bool) {
    let a = run_chaos(cfg);
    let b = run_chaos(cfg);
    let same = a.digest == b.digest;
    (a, same)
}
