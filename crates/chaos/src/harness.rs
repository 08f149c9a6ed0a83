//! End-to-end chaos runs: generate a plan, drive workload + nemesis, probe
//! the final namespace, check consistency, and digest the whole run for
//! bit-identical replay verification.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use switchfs_client::LibFs;
use switchfs_core::{Cluster, ClusterConfig, SystemKind};
use switchfs_proto::FsError;
use switchfs_server::server::recovery::RecoveryReport;
use switchfs_simnet::{SimDuration, SimHandle};

use crate::history::{
    check_client, FinalState, History, HistoryEvent, ModelState, SequentialModel,
};
use crate::nemesis::{run_nemesis, NemesisHandles, NemesisLog};
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
    /// Recovery reports, one per nemesis-driven recovery.
    pub recoveries: Vec<(usize, RecoveryReport)>,
    /// Switch reboots injected.
    pub switch_reboots: usize,
    /// Prepared transactions still unresolved after the final settle (must
    /// be zero; also surfaced as a violation).
    pub stranded_prepared: usize,
    /// Shards live-migrated by membership-change faults (zero for the other
    /// plan kinds).
    pub shards_moved: usize,
    /// Graceful decommissions completed by the nemesis (decommission plans
    /// only; zero when a fault window kept the drain from finishing).
    pub decommissions: usize,
    /// What each torn crash did to the victim's unflushed WAL suffix
    /// (diskchaos plans only; empty for the other kinds).
    pub torn_tails: Vec<(usize, switchfs_server::TornTail)>,
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

/// One scripted client operation.
#[derive(Debug, Clone)]
enum ScriptOp {
    Create(String),
    Delete(String),
    Rename(String, String),
    Mkdir(String),
    Rmdir(String),
    Stat(String),
    Statdir(String),
    Readdir(String),
    Chmod(String),
}

/// One script step: think, then act. The think times are pre-generated so
/// the script *spans the fault horizon* — without them the whole workload
/// would finish in a few healthy milliseconds before the first fault lands.
#[derive(Debug, Clone)]
struct ScriptStep {
    think_us: u64,
    op: ScriptOp,
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
        let op = match roll {
            0..=29 => ScriptOp::Create(f),
            30..=44 => ScriptOp::Delete(f),
            45..=56 => {
                let src = if !renamed.is_empty() && rng.gen_bool(0.3) {
                    renamed[rng.gen_range(0..renamed.len())].clone()
                } else {
                    f
                };
                let dst = format!("{dir}/r{rename_counter}");
                rename_counter += 1;
                renamed.push(dst.clone());
                ScriptOp::Rename(src, dst)
            }
            57..=62 => ScriptOp::Mkdir(d),
            63..=67 => ScriptOp::Rmdir(d),
            68..=79 => {
                let p = if !renamed.is_empty() && rng.gen_bool(0.3) {
                    renamed[rng.gen_range(0..renamed.len())].clone()
                } else {
                    f
                };
                ScriptOp::Stat(p)
            }
            80..=87 => ScriptOp::Statdir(dir.clone()),
            88..=95 => ScriptOp::Readdir(dir.clone()),
            _ => ScriptOp::Chmod(f),
        };
        out.push(ScriptStep {
            think_us: rng.gen_range(0..mean_think * 2),
            op,
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
        let op = step.op;
        let start_ns = handle.now().as_nanos();
        let (name, path, dst, outcome) = match &op {
            ScriptOp::Create(p) => (
                "create",
                p.clone(),
                None,
                client.create(p).await.map(|_| "file".to_string()),
            ),
            ScriptOp::Delete(p) => (
                "delete",
                p.clone(),
                None,
                client.delete(p).await.map(|_| "deleted".to_string()),
            ),
            ScriptOp::Rename(a, b) => (
                "rename",
                a.clone(),
                Some(b.clone()),
                client.rename(a, b).await.map(|_| "renamed".to_string()),
            ),
            ScriptOp::Mkdir(p) => (
                "mkdir",
                p.clone(),
                None,
                client.mkdir(p).await.map(|_| "dir".to_string()),
            ),
            ScriptOp::Rmdir(p) => (
                "rmdir",
                p.clone(),
                None,
                client.rmdir(p).await.map(|_| "removed".to_string()),
            ),
            ScriptOp::Stat(p) => (
                "stat",
                p.clone(),
                None,
                client.stat(p).await.map(|_| "file".to_string()),
            ),
            ScriptOp::Statdir(p) => (
                "statdir",
                p.clone(),
                None,
                client
                    .statdir(p)
                    .await
                    .map(|a| format!("dir size={}", a.size)),
            ),
            ScriptOp::Readdir(p) => (
                "readdir",
                p.clone(),
                None,
                client
                    .readdir(p)
                    .await
                    .map(|(_, e)| format!("{} entries", e.len())),
            ),
            ScriptOp::Chmod(p) => (
                "chmod",
                p.clone(),
                None,
                client.chmod(p, 0o700).await.map(|_| "chmod".to_string()),
            ),
        };
        let end_ns = handle.now().as_nanos();
        history.borrow_mut().record(HistoryEvent {
            client: c,
            idx,
            op: name.to_string(),
            path,
            dst,
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
        Err(FsError::NotFound) => match client.statdir(path).await {
            Ok(_) => FinalState::Dir,
            Err(FsError::NotFound) => FinalState::Missing,
            Err(_) => FinalState::Unprobed,
        },
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

    let handles = NemesisHandles::capture(&cluster);
    let clients: Vec<Rc<LibFs>> = cluster.clients().to_vec();
    let history = Rc::new(RefCell::new(History::default()));
    let nemesis_log = Rc::new(RefCell::new(NemesisLog::default()));
    let scripts: Vec<Vec<ScriptStep>> =
        (0..cfg.clients).map(|c| generate_script(&cfg, c)).collect();

    // Phase 1: workload + nemesis, concurrently, inside one simulation run.
    {
        let handles = handles.clone();
        let plan = plan.clone();
        let history = history.clone();
        let log = nemesis_log.clone();
        cluster.block_on(async move {
            let h = handles.handle.clone();
            let nem = h.spawn_with_result(run_nemesis(handles, plan, log));
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
    cluster.settle(timeout * 300 + SimDuration::millis(5));
    let mut stranded_prepared: usize = cluster
        .servers()
        .iter()
        .map(|s| s.prepared_txn_count())
        .sum();
    if stranded_prepared > 0 {
        // One more sweep window: a resolution may itself have been unlucky.
        cluster.settle(timeout * 300);
        stranded_prepared = cluster
            .servers()
            .iter()
            .map(|s| s.prepared_txn_count())
            .sum();
    }

    // Phase 3: probe the final state of every path the history touched.
    let mut paths: BTreeSet<String> = BTreeSet::new();
    for ev in &history.borrow().events {
        paths.insert(ev.path.clone());
        if let Some(d) = &ev.dst {
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

    // Phase 4: consistency checking — per-client sequential models plus the
    // cross-replica structural walk of each client directory.
    let history_ref = history.borrow();
    let mut violations = Vec::new();
    let preloaded: Vec<String> = std::iter::once("/chaos".to_string())
        .chain((0..cfg.clients).map(client_dir))
        .collect();
    for c in 0..cfg.clients {
        violations.extend(check_client(&history_ref, c, &finals, &preloaded));
    }
    violations.extend(structural_check(
        &cluster,
        &history_ref,
        cfg.clients,
        &finals,
    ));
    if stranded_prepared > 0 {
        violations.push(format!(
            "{stranded_prepared} prepared transaction(s) still unresolved after the final settle"
        ));
    }

    // Debug aid: `CHAOS_DEBUG=1` dumps per-server state when a run fails.
    if !violations.is_empty() && std::env::var("CHAOS_DEBUG").is_ok() {
        for (path, (_, id)) in &cluster.preloaded_dirs {
            for (i, s) in cluster.servers().iter().enumerate() {
                let entries = s.peek_entries(id);
                if !entries.is_empty() {
                    eprintln!("debug: server {i} entries[{path}] = {entries:?}");
                }
            }
        }
        for (i, s) in cluster.servers().iter().enumerate() {
            eprintln!(
                "debug: server {i} stats={:?} pending_changelog={} prepared={}",
                s.stats(),
                s.pending_changelog_entries(),
                s.prepared_txn_count()
            );
        }
    }

    // Digest for bit-identical replay verification.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut digest, plan.to_json().as_bytes());
    for ev in &history_ref.events {
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

    let log = nemesis_log.borrow();
    ChaosReport {
        plan,
        history: history_ref.clone(),
        violations,
        recoveries: log.recoveries.clone(),
        switch_reboots: log.switch_reboots,
        stranded_prepared,
        shards_moved: log.shards_moved,
        decommissions: log.decommissions,
        torn_tails: log.torn_tails.clone(),
        flight_recorder: cluster.obs().recorder().dump(),
        metrics: cluster.metrics_snapshot(),
        final_now_ns,
        digest,
    }
}

/// Cross-replica structural invariants of the final namespace: every client
/// directory's listing (served by the directory's content owner) must agree
/// with the per-path inode probes (served by each inode's owner), and the
/// directory's entry count must equal its listing length.
fn structural_check(
    cluster: &Cluster,
    history: &History,
    clients: usize,
    finals: &BTreeMap<String, FinalState>,
) -> Vec<String> {
    let mut violations = Vec::new();
    // Rebuild each client's final model to know which paths are pinned.
    let mut pinned: BTreeMap<String, ModelState> = BTreeMap::new();
    for c in 0..clients {
        let mut model = SequentialModel::default();
        for ev in history.of_client(c) {
            model.apply(ev);
        }
        pinned.extend(model.paths);
    }
    for c in 0..clients {
        let dir = client_dir(c);
        let prober = cluster.client(0);
        let dir2 = dir.clone();
        let listing: Result<(u64, Vec<String>), FsError> = cluster.block_on(async move {
            let (attrs, entries) = prober.readdir(&dir2).await?;
            let mut names: Vec<String> = entries.iter().map(|e| e.name.to_string()).collect();
            names.sort();
            Ok((attrs.size, names))
        });
        let (size, names) = match listing {
            Ok(v) => v,
            Err(e) => {
                violations.push(format!("cannot list {dir}: {e}"));
                continue;
            }
        };
        if size != names.len() as u64 {
            violations.push(format!(
                "{dir}: statdir size {size} != {} listed entries",
                names.len()
            ));
        }
        let listed: BTreeSet<&String> = names.iter().collect();
        for (path, st) in pinned.range(format!("{dir}/")..format!("{dir}0")) {
            let Some(name) = path.strip_prefix(&format!("{dir}/")) else {
                continue;
            };
            if name.contains('/') {
                continue;
            }
            let name = name.to_string();
            match st {
                ModelState::Present(_) => {
                    if !listed.contains(&name) {
                        violations.push(format!(
                            "{path} is present (model + probe) but missing from {dir}'s listing"
                        ));
                    }
                }
                ModelState::Absent => {
                    if listed.contains(&name) {
                        violations.push(format!(
                            "{path} is absent (model) but still listed in {dir}"
                        ));
                    }
                }
                ModelState::Unknown => {}
            }
        }
        // Every listed entry must be probeable as the type it claims.
        for name in &names {
            let path = format!("{dir}/{name}");
            if finals.get(&path) == Some(&FinalState::Missing) {
                violations.push(format!(
                    "{path} is listed in {dir} but both inode probes miss it"
                ));
            }
        }
    }
    violations
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
