//! History recording and the chaos verdict.
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
//! * `Unknown` — an [ambiguous](HistoryEvent::is_ambiguous) operation (the
//!   request may or may not have executed before the fault ate the
//!   response) touched the path; any state is admissible until a later
//!   definite read or mutation re-pins it.
//!
//! The verdict, [`check`], is a pure function of what the settled run
//! observed. It replays each client's history once, and the one model it
//! builds judges everything: definite outcomes as they are replayed (e.g.
//! `create → Ok` while the model says `Present` is a lost update), the final
//! probed namespace, rename atomicity — a rename must never leave *both* ends
//! present or both absent where the model pins them, the divergence a
//! volatile 2PC prepare used to produce — and each client directory's
//! listing.

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

impl HistoryEvent {
    /// Whether the outcome is ambiguous: a timeout or `Unavailable` may hide
    /// a mutation that executed and lost its response.
    pub fn is_ambiguous(&self) -> bool {
        matches!(self.outcome, Err(FsError::TimedOut | FsError::Unavailable))
    }
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

    /// Number of ambiguous operations ([`HistoryEvent::is_ambiguous`]).
    pub fn ambiguous(&self) -> usize {
        self.events.iter().filter(|e| e.is_ambiguous()).count()
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
        let ambiguous = ev.is_ambiguous();
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

/// A client directory's final `readdir`: its `statdir` size and its entry
/// names, sorted — or the error the read returned.
pub type Listing = Result<(u64, Vec<String>), FsError>;

/// The chaos verdict over what a settled run observed: the history, the
/// final probe of every path it touched, one [`Listing`] per client (client
/// `c`'s directory at `listings[c]`) and the prepared transactions left
/// unresolved. `preloaded` directories start `Present(Dir)`. Returns the
/// violations (empty = consistent): each client's history, final states and
/// renames, then the listings, then the stranded transactions.
pub fn check(
    history: &History,
    preloaded: &[String],
    finals: &BTreeMap<String, FinalState>,
    listings: &[(String, Listing)],
    stranded_prepared: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    let models: Vec<SequentialModel> = (0..listings.len())
        .map(|c| check_client(history, c, preloaded, finals, &mut violations))
        .collect();
    for ((dir, listing), model) in listings.iter().zip(&models) {
        check_listing(dir, listing, model, finals, &mut violations);
    }
    if stranded_prepared > 0 {
        violations.push(format!(
            "{stranded_prepared} prepared transaction(s) still unresolved after the final settle"
        ));
    }
    violations
}

/// Replays one client's history, checks it and the final states against the
/// model, and returns the model for the listing check.
fn check_client(
    history: &History,
    client: usize,
    preloaded: &[String],
    finals: &BTreeMap<String, FinalState>,
    violations: &mut Vec<String>,
) -> SequentialModel {
    let events = history.of_client(client);
    // Only a rename that is the last touch (as source or destination) of
    // both its ends gets the atomicity check: a later op may move either.
    let mut last_touch: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        last_touch.insert(&ev.item.path, i);
        if let Some(dst) = &ev.item.dst {
            last_touch.insert(dst, i);
        }
    }
    let mut model = SequentialModel::default();
    for p in preloaded {
        model.set(p, ModelState::Present(NodeKind::Dir));
    }
    // Each checked rename with the model states of its ends before it ran.
    let mut renames: Vec<(&HistoryEvent, ModelState, ModelState)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if let (OpKind::Rename, Some(dst)) = (ev.item.kind, &ev.item.dst) {
            let src = ev.item.path.as_str();
            if last_touch[src] == i && last_touch[dst.as_str()] == i {
                renames.push((ev, model.state(src), model.state(dst)));
            }
        }
        model.apply(ev);
    }
    violations.append(&mut model.violations);

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

    // Rename atomicity: the final namespace must hold exactly one end — both
    // present or both absent is the 2PC divergence the checker exists to
    // catch. Ambiguous renames admit either pre- or post-state, but never a
    // mixed one.
    for (ev, src_before, dst_before) in renames {
        let src = &ev.item.path;
        let dst = ev.item.dst.as_deref().unwrap_or_default();
        let (Some(fa), Some(fb)) = (finals.get(src), finals.get(dst)) else {
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
            Err(_)
                if ev.is_ambiguous()
                    && matches!(src_before, ModelState::Present(_))
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
    model
}

/// Checks one client directory's listing against the client's model (for
/// the pinned entries directly under `dir`) and against the final probes.
fn check_listing(
    dir: &str,
    listing: &Listing,
    model: &SequentialModel,
    finals: &BTreeMap<String, FinalState>,
    violations: &mut Vec<String>,
) {
    let (size, names) = match listing {
        Ok((size, names)) => (*size, names),
        Err(e) => {
            violations.push(format!("cannot list {dir}: {e}"));
            return;
        }
    };
    if size != names.len() as u64 {
        violations.push(format!(
            "{dir}: statdir size {size} != {} listed entries",
            names.len()
        ));
    }
    let listed = |name: &str| names.iter().any(|n| n == name);
    let prefix = format!("{dir}/");
    for (path, st) in model.paths.range(prefix.clone()..format!("{dir}0")) {
        let name = &path[prefix.len()..];
        if name.contains('/') {
            continue;
        }
        match st {
            ModelState::Present(_) if !listed(name) => {
                violations.push(format!(
                    "{path} is present (model + probe) but missing from {dir}'s listing"
                ));
            }
            ModelState::Absent if listed(name) => {
                violations.push(format!(
                    "{path} is absent (model) but still listed in {dir}"
                ));
            }
            _ => {}
        }
    }
    // Every listed entry must be probeable as the type it claims.
    for name in names {
        let path = format!("{dir}/{name}");
        if finals.get(&path) == Some(&FinalState::Missing) {
            violations.push(format!(
                "{path} is listed in {dir} but both inode probes miss it"
            ));
        }
    }
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

    fn history(events: impl IntoIterator<Item = HistoryEvent>) -> History {
        History {
            events: events.into_iter().collect(),
        }
    }

    fn finals<const N: usize>(states: [(&str, FinalState); N]) -> BTreeMap<String, FinalState> {
        states
            .into_iter()
            .map(|(p, f)| (p.to_string(), f))
            .collect()
    }

    /// Client 0's history and final-state violations, nothing preloaded.
    fn client_violations(h: &History, finals: &BTreeMap<String, FinalState>) -> Vec<String> {
        let mut violations = Vec::new();
        check_client(h, 0, &[], finals, &mut violations);
        violations
    }

    /// The verdict for client 0 alone, whose directory `/c0` lists `listing`.
    fn verdict(
        h: &History,
        finals: &BTreeMap<String, FinalState>,
        listing: Listing,
    ) -> Vec<String> {
        check(h, &[], finals, &[("/c0".to_string(), listing)], 0)
    }

    fn listed(size: u64, names: &[&str]) -> Listing {
        Ok((size, names.iter().map(|n| n.to_string()).collect()))
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
        assert!(client_violations(&h, &finals).is_empty());
    }

    #[test]
    fn lost_update_is_flagged() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Create, "/c0/f0", Ok(())));
        h.record(ev(1, OpKind::Stat, "/c0/f0", Err(FsError::NotFound)));
        let finals = BTreeMap::new();
        let v = client_violations(&h, &finals);
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
            assert!(client_violations(&h, &finals).is_empty(), "{fin:?}");
        }
    }

    #[test]
    fn final_state_must_match_pinned_model() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Create, "/c0/f0", Ok(())));
        let mut finals = BTreeMap::new();
        finals.insert("/c0/f0".to_string(), FinalState::Missing);
        let v = client_violations(&h, &finals);
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
        let v = client_violations(&h, &finals);
        assert!(v.iter().any(|s| s.contains("not atomic")), "{v:?}");
        // Clean: moved.
        let mut finals = BTreeMap::new();
        finals.insert("/c0/f0".to_string(), FinalState::Missing);
        finals.insert("/c0/r0".to_string(), FinalState::File);
        assert!(client_violations(&h, &finals).is_empty());
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
            assert!(client_violations(&h, &finals).is_empty(), "{fa:?}/{fb:?}");
        }
        // Both absent (the volatile-prepare hole) and both present diverge.
        for (fa, fb) in [
            (FinalState::Missing, FinalState::Missing),
            (FinalState::File, FinalState::File),
        ] {
            let mut finals = BTreeMap::new();
            finals.insert("/c0/f0".to_string(), fa);
            finals.insert("/c0/r0".to_string(), fb);
            let v = client_violations(&h, &finals);
            assert!(v.iter().any(|s| s.contains("diverged")), "{fa:?}/{fb:?}");
        }
    }

    #[test]
    fn mkdir_over_a_present_path_is_flagged() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Mkdir, "/c0/d0", Ok(())));
        h.record(ev(1, OpKind::Mkdir, "/c0/d0", Ok(())));
        assert_eq!(
            client_violations(&h, &BTreeMap::new()),
            ["client 0 op 1 (mkdir /c0/d0): mkdir succeeded over a present path"]
        );
    }

    #[test]
    fn rmdir_of_an_absent_path_is_flagged() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Rmdir, "/c0/d0", Ok(())));
        assert_eq!(
            client_violations(&h, &BTreeMap::new()),
            ["client 0 op 0 (rmdir /c0/d0): rmdir succeeded on an absent path"]
        );
    }

    #[test]
    fn a_successful_mkdir_pins_a_directory() {
        let mut h = History::default();
        h.record(ev(0, OpKind::Mkdir, "/c0/d0", Ok(())));
        let mut finals = BTreeMap::new();
        finals.insert("/c0/d0".to_string(), FinalState::Dir);
        assert!(client_violations(&h, &finals).is_empty());
        finals.insert("/c0/d0".to_string(), FinalState::File);
        assert_eq!(
            client_violations(&h, &finals),
            ["client 0: final state of /c0/d0 is File but the model says Present(Dir)"]
        );
    }

    #[test]
    fn a_listing_that_agrees_with_model_and_probes_passes() {
        let h = history([
            ev(0, OpKind::Create, "/c0/f0", Ok(())),
            ev(1, OpKind::Mkdir, "/c0/d0", Ok(())),
            ev(2, OpKind::Create, "/c0/d0/x", Ok(())),
        ]);
        let finals = finals([
            ("/c0/f0", FinalState::File),
            ("/c0/d0", FinalState::Dir),
            ("/c0/d0/x", FinalState::File),
        ]);
        // `/c0/d0/x` is not a direct entry of `/c0`, so it is not expected
        // in its listing.
        assert!(verdict(&h, &finals, listed(2, &["d0", "f0"])).is_empty());
    }

    #[test]
    fn a_present_entry_missing_from_the_listing_is_flagged() {
        let h = history([ev(0, OpKind::Create, "/c0/f0", Ok(()))]);
        let finals = finals([("/c0/f0", FinalState::File)]);
        assert_eq!(
            verdict(&h, &finals, listed(0, &[])),
            ["/c0/f0 is present (model + probe) but missing from /c0's listing"]
        );
    }

    #[test]
    fn an_absent_entry_still_listed_is_flagged() {
        let h = history([
            ev(0, OpKind::Create, "/c0/f0", Ok(())),
            ev(1, OpKind::Delete, "/c0/f0", Ok(())),
        ]);
        // Unprobed: only the model speaks about `/c0/f0`.
        let finals = finals([("/c0/f0", FinalState::Unprobed)]);
        assert_eq!(
            verdict(&h, &finals, listed(1, &["f0"])),
            ["/c0/f0 is absent (model) but still listed in /c0"]
        );
    }

    #[test]
    fn a_statdir_size_that_differs_from_the_listing_is_flagged() {
        let h = History::default();
        assert_eq!(
            verdict(&h, &BTreeMap::new(), listed(2, &["f0"])),
            ["/c0: statdir size 2 != 1 listed entries"]
        );
    }

    #[test]
    fn a_listed_entry_both_probes_miss_is_flagged() {
        // The timed-out create leaves the model `Unknown`: only the probes
        // speak about `/c0/f0`.
        let h = history([ev(0, OpKind::Create, "/c0/f0", Err(FsError::TimedOut))]);
        let finals = finals([("/c0/f0", FinalState::Missing)]);
        assert_eq!(
            verdict(&h, &finals, listed(1, &["f0"])),
            ["/c0/f0 is listed in /c0 but both inode probes miss it"]
        );
    }

    #[test]
    fn an_unreadable_directory_is_flagged() {
        let e = FsError::Unavailable;
        assert_eq!(
            verdict(&History::default(), &BTreeMap::new(), Err(e)),
            [format!("cannot list /c0: {e}")]
        );
    }

    #[test]
    fn only_the_last_rename_on_both_ends_gets_the_atomicity_check() {
        // Op 1's source is touched later as op 3's destination: op 1 is not
        // checked, although its final (both ends present) would fail it.
        let mut h = history([
            ev(0, OpKind::Create, "/c0/a", Ok(())),
            rename(1, "/c0/a", "/c0/b", Ok(())),
            ev(2, OpKind::Create, "/c0/x", Ok(())),
            rename(3, "/c0/x", "/c0/a", Ok(())),
        ]);
        let moved = finals([
            ("/c0/a", FinalState::File),
            ("/c0/b", FinalState::File),
            ("/c0/x", FinalState::Missing),
        ]);
        assert!(client_violations(&h, &moved).is_empty());
        // Op 3 is the last touch of both its ends, so it is checked.
        let both = finals([
            ("/c0/a", FinalState::File),
            ("/c0/b", FinalState::File),
            ("/c0/x", FinalState::File),
        ]);
        assert_eq!(
            client_violations(&h, &both),
            [
                "client 0: final state of /c0/x is File but the model says Absent",
                "client 0 op 3: committed rename /c0/x -> /c0/a not atomic in the final \
                 namespace (src File, dst File)",
            ]
        );
        // A later stat of op 3's destination takes the check away too.
        h.record(ev(4, OpKind::Stat, "/c0/a", Ok(())));
        assert_eq!(
            client_violations(&h, &both),
            ["client 0: final state of /c0/x is File but the model says Absent"]
        );
    }

    #[test]
    fn the_verdict_lists_histories_then_listings_then_stranded_transactions() {
        let h = history([
            ev(0, OpKind::Create, "/c0/f0", Ok(())),
            HistoryEvent {
                client: 1,
                ..ev(0, OpKind::Rmdir, "/c1/d0", Ok(()))
            },
        ]);
        let finals = finals([("/c0/f0", FinalState::File)]);
        let listings = [
            ("/c0".to_string(), listed(0, &[])),
            ("/c1".to_string(), listed(0, &[])),
        ];
        assert_eq!(
            check(&h, &[], &finals, &listings, 2),
            [
                "client 1 op 0 (rmdir /c1/d0): rmdir succeeded on an absent path",
                "/c0/f0 is present (model + probe) but missing from /c0's listing",
                "2 prepared transaction(s) still unresolved after the final settle",
            ]
        );
    }
}
