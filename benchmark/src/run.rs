//! One run of one workload: the repetitions, the guards, the verdict.
//!
//! End-to-end mode (`--trace 0`): `reps` repetitions on *distinct* inputs
//! derived from the seed, tracing off, then one more on the first input. The
//! virtual-clock and count metrics pool the distinct inputs — one seed gives
//! one exact value, and pooling several realisations of the workload keeps
//! that value steady from seed to seed — the host-clock metrics are the best
//! of all repetitions, and the repeated input must replay bit-identically.
//!
//! Per-layer mode (`--trace 1`): three untraced and one traced repetition of
//! the first input, which must all replay bit-identically, then the layer
//! drives sized from what the counted run observed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use crate::drive::{repetition, Rep};
use crate::layers::{self, Observed};
use crate::metrics::{self, BudgetRow, LayerInputs, Stages, Values};
use crate::trace::{HostSpans, TraceFile};
use crate::workloads::Spec;

/// A repetition whose driver phase got less than this share of a CPU is
/// discarded and re-run.
const MIN_CPU_SHARE: f64 = 0.95;
const MAX_RERUNS: usize = 2;
/// Seconds one repetition is sized to take on the reference host; the
/// number of repetitions follows from `--seconds`, never from a measurement,
/// so the same arguments always do the same work. Short and many rather than
/// long and few: the pooled sample is the same size, it spans more inputs,
/// and the best host timing of many is steadier on a noisy host.
const REP_SECONDS: u64 = 1;
const MIN_REPS: u64 = 3;
const WARM_UP_OPS: usize = 500;

pub struct Settings {
    pub spec: Spec,
    pub ops: usize,
    pub seed: u64,
    pub seconds: u64,
    /// Where the traced repetition's spans go.
    pub trace_out: PathBuf,
}

/// Failed ops by `(op class, error kind)`.
pub type Failures = BTreeMap<(&'static str, &'static str), u64>;

#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Failures,
    pub oracle_examples: Vec<String>,
    /// Differences between repetitions that must be identical.
    pub determinism: Vec<String>,
    pub reps: usize,
    pub reruns: usize,
    /// `host_kops` of each repetition, in run order: how noisy the host was.
    pub rep_host_kops: Vec<f64>,
    /// Latency samples pooled for the percentiles (end-to-end mode).
    pub samples: usize,
    pub stages: Option<Stages>,
    pub budget: Vec<BudgetRow>,
    pub host_ns_per_op: f64,
}

impl Outcome {
    /// The value of a metric of the mode that ran.
    pub fn value(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("the catalog lists `{name}` but nothing computed it"))
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.determinism.is_empty()
    }

    fn tally(&mut self, rep: &Rep) {
        self.reps += 1;
        self.rep_host_kops.push(rep.host_kops());
        self.attempted +=
            (rep.recs.len() + rep.oracle.dirs_checked + rep.oracle.paths_checked) as u64;
        self.failed += rep.oracle.mismatches as u64;
        self.oracle_examples
            .extend(rep.oracle.examples.iter().cloned());
        for (item, rec) in rep.input.items.iter().zip(&rep.recs) {
            if let Some(kind) = rec.fail {
                self.failed += 1;
                *self.failures.entry((item.kind.name(), kind)).or_default() += 1;
            }
        }
    }
}

struct Runner<'a> {
    cfg: &'a Settings,
    spans: HostSpans,
    out: Outcome,
}

impl<'a> Runner<'a> {
    /// Starts a run with a short unmeasured repetition, so that one-time
    /// lazy set-up inside the process (first use of thread-locals and the
    /// like, one 320-byte allocation today) is not charged to the first
    /// measured repetition and every repetition counts the same.
    fn warmed_up(cfg: &'a Settings) -> Self {
        let mut spans = HostSpans::new();
        let ops = cfg.ops.min(WARM_UP_OPS);
        repetition("warm-up", &cfg.spec, ops, cfg.seed, None, &mut spans);
        Runner {
            cfg,
            spans,
            out: Outcome::default(),
        }
    }

    /// The `k`-th input of this run's seed.
    fn input_seed(&self, k: u64) -> u64 {
        self.cfg
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(k)
    }

    /// One untraced repetition that passed the noise guard.
    fn timed(&mut self, k: u64) -> Rep {
        loop {
            let rep = repetition(
                "repetition",
                &self.cfg.spec,
                self.cfg.ops,
                self.input_seed(k),
                None,
                &mut self.spans,
            );
            if rep.host.cpu_share >= MIN_CPU_SHARE || self.out.reruns == MAX_RERUNS {
                self.out.tally(&rep);
                return rep;
            }
            self.out.reruns += 1;
        }
    }

    /// Records every way `b` differs from `a`; they ran the same input.
    fn must_match(&mut self, what: &str, a: &Rep, b: &Rep, b_traced: bool) {
        let mut diff = |field: &str| self.out.determinism.push(format!("{what}: {field} differ"));
        if a.recs != b.recs {
            diff("op spans");
        }
        if a.sim_elapsed_ns != b.sim_elapsed_ns {
            diff("virtual run times");
        }
        if a.oracle != b.oracle {
            diff("oracle reports");
        }
        // Tracing allocates (the ring) and counts its own events; everything
        // else must be untouched by it.
        let skip = |name: &str| b_traced && name.starts_with("obs.");
        for (name, v) in &a.counts {
            if !skip(name) && b.counts.get(name) != Some(v) {
                diff(name);
            }
        }
        if !b_traced && a.alloc != b.alloc {
            diff(&format!(
                "allocation counts ({:?} vs {:?})",
                a.alloc, b.alloc
            ));
        }
    }
}

pub fn end_to_end(cfg: &Settings) -> Outcome {
    let mut r = Runner::warmed_up(cfg);
    let distinct = (cfg.seconds / REP_SECONDS).max(MIN_REPS);
    let mut reps: Vec<Rep> = (0..distinct).map(|k| r.timed(k)).collect();
    let again = r.timed(0);
    r.must_match("repeat of input 0", &reps[0], &again, false);
    reps.push(again);
    let timed: Vec<&Rep> = reps.iter().collect();
    let inputs = &timed[..distinct as usize];
    r.out.values = metrics::end_to_end(inputs, &timed, cfg.ops);
    r.out.samples = cfg.ops * inputs.len();
    r.out
}

pub fn per_layer(cfg: &Settings) -> std::io::Result<Outcome> {
    let mut r = Runner::warmed_up(cfg);
    let first = r.timed(0);
    let second = r.timed(0);
    r.must_match("second untraced repetition", &first, &second, false);
    let third = r.timed(0);
    r.must_match("third untraced repetition", &first, &third, false);
    // The ring is per node and unbounded in memory until it fills; size it
    // so that even one node seeing every event of the run evicts nothing.
    let traced = repetition(
        "traced-repetition",
        &cfg.spec,
        cfg.ops,
        r.input_seed(0),
        Some(cfg.ops * 64),
        &mut r.spans,
    );
    r.out.tally(&traced);
    r.must_match("traced repetition", &first, &traced, true);

    let events = traced.events.as_deref().unwrap_or_default();
    let stages = metrics::stages(events, &traced);
    let preloaded = cfg.spec.dirs * cfg.spec.files_per_dir;
    let seen = Observed::from_run(
        &first.counts,
        first.servers,
        preloaded,
        (stages.entries_pushed, stages.pushes),
    );
    // The drives get what is left of `--seconds`, within reason.
    let left = (cfg.seconds as f64 - r.spans.elapsed_s()).clamp(1.0, 4.0);
    let drives = r.spans.open("layer-drives", 0);
    let costs = layers::run_all(&seen, Duration::from_secs_f64(left));
    r.spans.close(drives);

    let report = metrics::per_layer(&LayerInputs {
        items: &first.input.items,
        untraced: &[&first, &second, &third],
        traced: &traced,
        stages,
        costs: &costs,
    });
    r.out.values = report.values;
    r.out.budget = report.budget;
    r.out.host_ns_per_op = report.host_ns_per_op;
    r.out.stages = Some(stages);

    TraceFile {
        workload: cfg.spec.name,
        seed: cfg.seed,
        clients: cfg.spec.clients,
        drive_span: traced.drive_span,
        host: &r.spans.spans,
        items: &traced.input.items,
        recs: &traced.recs,
        stages: &stages,
    }
    .write(&cfg.trace_out)?;
    Ok(r.out)
}
