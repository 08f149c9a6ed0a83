//! History recording and the sequential-model consistency checker.
//!
//! Every client operation the chaos harness issues is recorded as an
//! invocation/response pair ([`HistoryEvent`]). Clients operate on disjoint,
//! client-private namespaces and issue their operations sequentially, so the
//! history of each path is a single client's FIFO — which makes the
//! correctness condition checkable with a per-path **sequential model**
//! tracked through three states:
//!
//! * `Present(kind)` — the path definitely holds a file/directory;
//! * `Absent` — the path definitely holds nothing;
//! * `Unknown` — an *ambiguous* operation (a timeout: the request may or may
//!   not have executed before the fault ate the response) touched the path;
//!   any state is admissible until a later definite read or mutation
//!   re-pins it.
//!
//! Definite outcomes must agree with the model as the history is replayed
//! (e.g. `create → Ok` while the model says `Present` is a lost-update
//! violation), and the final namespace — harvested after every fault has
//! healed and the cluster has settled — must agree with each path's final
//! model state. Renames additionally get an atomicity check: whatever a
//! rename's outcome, the cluster must never end up with *both* ends present
//! or both ends absent when the model pins them — exactly the namespace
//! divergence a volatile 2PC prepare used to produce.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use switchfs_proto::FsError;
use switchfs_workloads::{OpKind, WorkItem};

/// What kind of inode a model state refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A regular file.
    File,
    /// A directory.
    Dir,
    /// Present, but the type was never pinned by a definite observation.
    Any,
}

/// One recorded operation: what was asked, when, and what came back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryEvent {
    /// Issuing client (index into the cluster's clients).
    pub client: usize,
    /// Per-client sequence number (the client issues sequentially).
    pub idx: usize,
    /// The operation, in the workload vocabulary.
    pub item: WorkItem,
    /// Virtual time the invocation started, ns.
    pub start_ns: u64,
    /// Virtual time the response arrived (or the op gave up), ns.
    pub end_ns: u64,
    /// Success, or the POSIX error.
    pub outcome: Result<(), FsError>,
}

/// The recorded history of one chaos run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct History {
    /// All events, in completion order (deterministic under the simulator).
    pub events: Vec<HistoryEvent>,
}

impl History {
    /// Appends one event.
    pub fn record(&mut self, ev: HistoryEvent) {
        self.events.push(ev);
    }

    /// Events of one client, in issue order.
    pub fn of_client(&self, client: usize) -> Vec<&HistoryEvent> {
        let mut evs: Vec<&HistoryEvent> =
            self.events.iter().filter(|e| e.client == client).collect();
        evs.sort_by_key(|e| e.idx);
        evs
    }

    /// Number of ambiguous operations (timed out or surfaced `Unavailable`
    /// — either may hide an executed-but-response-lost mutation).
    pub fn ambiguous(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.outcome,
                    Err(FsError::TimedOut) | Err(FsError::Unavailable)
                )
            })
            .count()
    }

    /// Number of definite successes.
    pub fn ok(&self) -> usize {
        self.events.iter().filter(|e| e.outcome.is_ok()).count()
    }
}

/// Per-path sequential-model state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelState {
    /// Definitely present.
    Present(NodeKind),
    /// Definitely absent.
    Absent,
    /// An ambiguous operation touched the path; anything goes until re-pinned.
    Unknown,
}

/// The final, probed state of one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FinalState {
    /// `stat` succeeded (regular file).
    File,
    /// `statdir` succeeded (directory).
    Dir,
    /// Both probes returned `NotFound`.
    Missing,
    /// The probes themselves failed (cluster unhealthy at harvest time).
    Unprobed,
}

/// A model built by replaying one client's history.
#[derive(Debug, Default)]
pub struct SequentialModel {
    /// Path → model state after the whole history.
    pub paths: BTreeMap<String, ModelState>,
    /// Violations found while replaying (definite outcome contradicting the
    /// model).
    pub violations: Vec<String>,
}

impl SequentialModel {
    fn state(&self, path: &str) -> ModelState {
        self.paths.get(path).copied().unwrap_or(ModelState::Absent)
    }

    fn set(&mut self, path: &str, st: ModelState) {
        self.paths.insert(path.to_string(), st);
    }

    fn violation(&mut self, ev: &HistoryEvent, why: &str) {
        self.violations.push(format!(
            "client {} op {} ({} {}): {}",
            ev.client,
            ev.idx,
            ev.item.kind.name(),
            ev.item.path,
            why
        ));
    }

    /// Replays one event into the model.
    ///
    /// Two at-least-once subtleties shape the rules below. First, which
    /// surfaced errors are *ambiguous*: timeouts and `Unavailable`, for
    /// every operation — an operation can execute, lose its response to a
    /// crash (which also wipes the server's duplicate-suppression cache),
    /// and then surface `Unavailable` from a retry that hit the recovery
    /// window; this holds even for rename, whose committed-but-crashed
    /// coordinator answers post-recovery retransmissions with the
    /// availability gate. Second, *semantic* errors pin state instead of
    /// being judged against the model: after a dedup-wiping crash, a
    /// retried create can observe its own earlier execution as
    /// `AlreadyExists` (and a retried delete as `NotFound`), so those
    /// outcomes describe the namespace rather than contradict it.
    pub fn apply(&mut self, ev: &HistoryEvent) {
        let ambiguous = matches!(
            ev.outcome,
            Err(FsError::TimedOut) | Err(FsError::Unavailable)
        );
        let path = ev.item.path.clone();
        let st = self.state(&path);
        let name = ev.item.kind.name();
        match ev.item.kind {
            OpKind::Create | OpKind::Mkdir => match &ev.outcome {
                Ok(_) => {
                    if let ModelState::Present(_) = st {
                        self.violation(ev, &format!("{name} succeeded over a present path"));
                    }
                    let kind = if ev.item.kind == OpKind::Create {
                        NodeKind::File
                    } else {
                        NodeKind::Dir
                    };
                    self.set(&path, ModelState::Present(kind));
                }
                Err(FsError::AlreadyExists) => {
                    // Pin: something definitely occupies the path (possibly
                    // this very op's earlier, response-lost execution).
                    if st == ModelState::Absent {
                        self.set(&path, ModelState::Present(NodeKind::Any));
                    }
                }
                Err(_) if ambiguous => {
                    if st == ModelState::Absent {
                        self.set(&path, ModelState::Unknown);
                    }
                }
                Err(_) => {}
            },
            OpKind::Delete | OpKind::Rmdir => match &ev.outcome {
                Ok(_) => {
                    if st == ModelState::Absent {
                        self.violation(ev, &format!("{name} succeeded on an absent path"));
                    }
                    self.set(&path, ModelState::Absent);
                }
                Err(FsError::NotFound) => {
                    // Pin: definitely absent now (possibly removed by this
                    // op's earlier, response-lost execution).
                    self.set(&path, ModelState::Absent);
                }
                Err(_) if ambiguous => {
                    if matches!(st, ModelState::Present(_)) {
                        self.set(&path, ModelState::Unknown);
                    }
                }
                Err(_) => {}
            },
            OpKind::Rename => {
                let dst = ev.item.dst.clone().unwrap_or_default();
                let dst_st = self.state(&dst);
                match &ev.outcome {
                    Ok(_) => {
                        if st == ModelState::Absent {
                            self.violation(ev, "rename succeeded with an absent source");
                        }
                        let kind = match st {
                            ModelState::Present(k) => k,
                            _ => NodeKind::Any,
                        };
                        self.set(&path, ModelState::Absent);
                        self.set(&dst, ModelState::Present(kind));
                    }
                    Err(FsError::NotFound) => {
                        // The source is definitely absent at this point —
                        // either it never existed, or this op's earlier,
                        // response-lost execution already moved it (in which
                        // case the destination holds it).
                        self.set(&path, ModelState::Absent);
                        if matches!(st, ModelState::Present(_) | ModelState::Unknown)
                            && dst_st == ModelState::Absent
                        {
                            self.set(&dst, ModelState::Unknown);
                        }
                    }
                    Err(_) if ambiguous => {
                        self.set(&path, ModelState::Unknown);
                        if dst_st == ModelState::Absent {
                            self.set(&dst, ModelState::Unknown);
                        }
                    }
                    // Typed rejects mutate nothing.
                    Err(_) => {}
                }
            }
            OpKind::Stat => match &ev.outcome {
                Ok(_) => {
                    match st {
                        ModelState::Absent => {
                            self.violation(ev, "stat succeeded on an absent path")
                        }
                        ModelState::Present(NodeKind::Dir) => {
                            self.violation(ev, "stat succeeded on a directory")
                        }
                        _ => {}
                    }
                    self.set(&path, ModelState::Present(NodeKind::File));
                }
                Err(FsError::NotFound) => {
                    if st == ModelState::Present(NodeKind::File) {
                        self.violation(ev, "stat lost a present file");
                    }
                    if st == ModelState::Unknown {
                        self.set(&path, ModelState::Absent);
                    }
                }
                Err(_) => {}
            },
            OpKind::Statdir | OpKind::Readdir => match &ev.outcome {
                Ok(_) => {
                    match st {
                        ModelState::Absent => {
                            self.violation(ev, "directory read succeeded on an absent path")
                        }
                        ModelState::Present(NodeKind::File) => {
                            self.violation(ev, "directory read succeeded on a file")
                        }
                        _ => {}
                    }
                    self.set(&path, ModelState::Present(NodeKind::Dir));
                }
                Err(FsError::NotFound) => {
                    if st == ModelState::Present(NodeKind::Dir) {
                        self.violation(ev, "directory read lost a present directory");
                    }
                    if st == ModelState::Unknown {
                        self.set(&path, ModelState::Absent);
                    }
                }
                Err(_) => {}
            },
            OpKind::Chmod if ev.outcome.is_ok() => {
                if st == ModelState::Absent {
                    self.violation(ev, "chmod succeeded on an absent path");
                }
                if st == ModelState::Unknown {
                    self.set(&path, ModelState::Present(NodeKind::Any));
                }
            }
            _ => {}
        }
    }
}

/// Checks one client's history against the sequential model and the final
/// probed namespace. `preloaded` names directories installed before the run
/// (they start `Present(Dir)` instead of `Absent`). Returns human-readable
/// violations (empty = consistent).
pub fn check_client(
    history: &History,
    client: usize,
    finals: &BTreeMap<String, FinalState>,
    preloaded: &[String],
) -> Vec<String> {
    let mut model = SequentialModel::default();
    for p in preloaded {
        model.set(p, ModelState::Present(NodeKind::Dir));
    }
    let events = history.of_client(client);
    for ev in &events {
        model.apply(ev);
    }
    let mut violations = std::mem::take(&mut model.violations);

    // Final-state agreement: every definitely-pinned path must match the
    // probed namespace.
    for (path, st) in &model.paths {
        let Some(fin) = finals.get(path) else {
            continue;
        };
        let ok = match (st, fin) {
            (_, FinalState::Unprobed) => true,
            (ModelState::Unknown, _) => true,
            (ModelState::Absent, FinalState::Missing) => true,
            (ModelState::Absent, _) => false,
            (ModelState::Present(NodeKind::File), FinalState::File) => true,
            (ModelState::Present(NodeKind::Dir), FinalState::Dir) => true,
            (ModelState::Present(NodeKind::Any), FinalState::File | FinalState::Dir) => true,
            (ModelState::Present(_), _) => false,
        };
        if !ok {
            violations.push(format!(
                "client {client}: final state of {path} is {fin:?} but the model says {st:?}"
            ));
        }
    }

    // Rename atomicity: for every rename that is the *last* event touching
    // both of its ends, the final namespace must hold exactly one end — both
    // present or both absent is the 2PC divergence the checker exists to
    // catch. Ambiguous renames admit either pre- or post-state, but never a
    // mixed one.
    let mut rename_checks: Vec<(&HistoryEvent, ModelState, ModelState)> = Vec::new();
    {
        let mut model = SequentialModel::default();
        for p in preloaded {
            model.set(p, ModelState::Present(NodeKind::Dir));
        }
        for (i, ev) in events.iter().enumerate() {
            if ev.item.kind == OpKind::Rename {
                let src = &ev.item.path;
                let dst = ev.item.dst.clone().unwrap_or_default();
                let later_touch = events[i + 1..].iter().any(|e| {
                    e.item.path == *src
                        || e.item.path == dst
                        || e.item.dst.as_deref() == Some(src)
                        || e.item.dst.as_deref() == Some(dst.as_str())
                });
                if !later_touch {
                    rename_checks.push((ev, model.state(src), model.state(&dst)));
                }
            }
            model.apply(ev);
        }
    }
    for (ev, src_before, dst_before) in rename_checks {
        let src = &ev.item.path;
        let dst = ev.item.dst.clone().unwrap_or_default();
        let (Some(fa), Some(fb)) = (finals.get(src), finals.get(&dst)) else {
            continue;
        };
        if matches!(fa, FinalState::Unprobed) || matches!(fb, FinalState::Unprobed) {
            continue;
        }
        let a_present = !matches!(fa, FinalState::Missing);
        let b_present = !matches!(fb, FinalState::Missing);
        match &ev.outcome {
            Ok(_) if a_present || !b_present => {
                violations.push(format!(
                    "client {} op {}: committed rename {} -> {} not atomic in the final \
                     namespace (src {:?}, dst {:?})",
                    ev.client, ev.idx, src, dst, fa, fb
                ));
            }
            // The exactly-one-end argument needs both priors pinned: with
            // the source definitely present and the destination definitely
            // absent, an abort leaves (present, absent) and a commit
            // (absent, present) — both-absent and both-present are the 2PC
            // divergence. An already-absent source legitimately yields a
            // both-absent no-op, so it is excluded.
            Err(FsError::TimedOut | FsError::Unavailable)
                if matches!(src_before, ModelState::Present(_))
                    && dst_before == ModelState::Absent
                    && a_present == b_present =>
            {
                violations.push(format!(
                    "client {} op {}: ambiguous rename {} -> {} diverged: src {:?}, dst {:?} \
                     (must hold exactly one end)",
                    ev.client, ev.idx, src, dst, fa, fb
                ));
            }
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(idx: usize, item: WorkItem, outcome: Result<(), FsError>) -> HistoryEvent {
        HistoryEvent {
            client: 0,
            idx,
            item,
            start_ns: idx as u64,
            end_ns: idx as u64 + 1,
            outcome,
        }
    }

    fn ev(idx: usize, kind: OpKind, path: &str, outcome: Result<(), FsError>) -> HistoryEvent {
        event(idx, WorkItem::new(kind, path), outcome)
    }

    fn rename(idx: usize, src: &str, dst: &str, outcome: Result<(), FsError>) -> HistoryEvent {
        event(idx, WorkItem::rename(src, dst), outcome)
    }

    #[test]
    fn clean_lifecycle_has_no_violations() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Create, "/c0/f0", Ok(())));
        h.record(ev(1, OpKind::Stat, "/c0/f0", Ok(())));
        h.record(ev(2, OpKind::Delete, "/c0/f0", Ok(())));
        h.record(ev(3, OpKind::Stat, "/c0/f0", Err(FsError::NotFound)));
        let mut finals = BTreeMap::new();
        finals.insert("/c0/f0".to_string(), FinalState::Missing);
        assert!(check_client(&h, 0, &finals, &[]).is_empty());
    }

    #[test]
    fn lost_update_is_flagged() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Create, "/c0/f0", Ok(())));
        h.record(ev(1, OpKind::Stat, "/c0/f0", Err(FsError::NotFound)));
        let finals = BTreeMap::new();
        let v = check_client(&h, 0, &finals, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("lost a present file"));
    }

    #[test]
    fn ambiguous_timeout_permits_either_state() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Create, "/c0/f0", Err(FsError::TimedOut)));
        for fin in [FinalState::File, FinalState::Missing] {
            let mut finals = BTreeMap::new();
            finals.insert("/c0/f0".to_string(), fin);
            assert!(check_client(&h, 0, &finals, &[]).is_empty(), "{fin:?}");
        }
    }

    #[test]
    fn final_state_must_match_pinned_model() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Create, "/c0/f0", Ok(())));
        let mut finals = BTreeMap::new();
        finals.insert("/c0/f0".to_string(), FinalState::Missing);
        let v = check_client(&h, 0, &finals, &[]);
        assert!(!v.is_empty());
    }

    #[test]
    fn committed_rename_must_be_atomic() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Create, "/c0/f0", Ok(())));
        h.record(rename(1, "/c0/f0", "/c0/r0", Ok(())));
        // Divergent: both ends present.
        let mut finals = BTreeMap::new();
        finals.insert("/c0/f0".to_string(), FinalState::File);
        finals.insert("/c0/r0".to_string(), FinalState::File);
        let v = check_client(&h, 0, &finals, &[]);
        assert!(v.iter().any(|s| s.contains("not atomic")), "{v:?}");
        // Clean: moved.
        let mut finals = BTreeMap::new();
        finals.insert("/c0/f0".to_string(), FinalState::Missing);
        finals.insert("/c0/r0".to_string(), FinalState::File);
        assert!(check_client(&h, 0, &finals, &[]).is_empty());
    }

    #[test]
    fn ambiguous_rename_must_hold_exactly_one_end() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Create, "/c0/f0", Ok(())));
        h.record(rename(1, "/c0/f0", "/c0/r0", Err(FsError::TimedOut)));
        // Either end alone is fine.
        for (fa, fb) in [
            (FinalState::File, FinalState::Missing),
            (FinalState::Missing, FinalState::File),
        ] {
            let mut finals = BTreeMap::new();
            finals.insert("/c0/f0".to_string(), fa);
            finals.insert("/c0/r0".to_string(), fb);
            assert!(
                check_client(&h, 0, &finals, &[]).is_empty(),
                "{fa:?}/{fb:?}"
            );
        }
        // Both absent (the volatile-prepare hole) and both present diverge.
        for (fa, fb) in [
            (FinalState::Missing, FinalState::Missing),
            (FinalState::File, FinalState::File),
        ] {
            let mut finals = BTreeMap::new();
            finals.insert("/c0/f0".to_string(), fa);
            finals.insert("/c0/r0".to_string(), fb);
            let v = check_client(&h, 0, &finals, &[]);
            assert!(v.iter().any(|s| s.contains("diverged")), "{fa:?}/{fb:?}");
        }
    }

    #[test]
    fn mkdir_over_a_present_path_is_flagged() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Mkdir, "/c0/d0", Ok(())));
        h.record(ev(1, OpKind::Mkdir, "/c0/d0", Ok(())));
        assert_eq!(
            check_client(&h, 0, &BTreeMap::new(), &[]),
            ["client 0 op 1 (mkdir /c0/d0): mkdir succeeded over a present path"]
        );
    }

    #[test]
    fn rmdir_of_an_absent_path_is_flagged() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Rmdir, "/c0/d0", Ok(())));
        assert_eq!(
            check_client(&h, 0, &BTreeMap::new(), &[]),
            ["client 0 op 0 (rmdir /c0/d0): rmdir succeeded on an absent path"]
        );
    }

    #[test]
    fn a_successful_mkdir_pins_a_directory() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Mkdir, "/c0/d0", Ok(())));
        let mut finals = BTreeMap::new();
        finals.insert("/c0/d0".to_string(), FinalState::Dir);
        assert!(check_client(&h, 0, &finals, &[]).is_empty());
        finals.insert("/c0/d0".to_string(), FinalState::File);
        assert_eq!(
            check_client(&h, 0, &finals, &[]),
            ["client 0: final state of /c0/d0 is File but the model says Present(Dir)"]
        );
    }
}
