//! The write-ahead log.
//!
//! SwitchFS keeps its change-log, invalidation list and key-value store in
//! DRAM for performance and relies on a per-server WAL for durability
//! (§5.2, §5.4.2). The WAL records the sequence of committed operations and
//! marks, per record, whether the corresponding asynchronous update has been
//! applied on the remote directory owner — recovery replays only what is
//! needed.
//!
//! # Persistence boundary
//!
//! Real devices do not persist appends atomically: a record handed to the
//! log is *volatile* until a [`Wal::flush`] advances the durable watermark
//! past it (group commit). A crash snapshots only the flushed prefix
//! faithfully; the unflushed suffix is at the mercy of the device — records
//! may survive intact, arrive torn (partially written, detected by a
//! per-record checksum), or be dropped entirely (never hit the platter, or
//! reordered behind a write that did). [`Wal::crash_apply`] models exactly
//! that, and [`Wal::recover_truncate`] is the recovery-side counterpart: it
//! keeps the longest checksum-clean, LSN-contiguous prefix and truncates the
//! rest. LSNs of truncated records are never reissued — `next_lsn` is the
//! high-water mark over everything ever appended, so a torn LSN cannot
//! collide with id-based duplicate suppression after recovery — and each
//! recovery bumps a generation stamp so post-crash records are
//! distinguishable from any pre-crash survivor. The log remembers where each
//! generation started, so the LSNs a recovery gave up are not mistaken for a
//! hole by the next one.

/// splitmix64: the per-record fault draw for [`Wal::crash_apply`] and the
/// modeled record checksum. Local: no other crate draws from it.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The modeled on-media checksum of a record: a mix over the header fields
/// the simulation tracks (LSN, generation, size). The payload lives in
/// simulator memory and cannot itself be bit-flipped, so "torn" is modeled
/// as a checksum that no longer matches — which is exactly what recovery
/// observes on real media.
fn record_checksum(lsn: u64, generation: u64, size: u64) -> u64 {
    mix64(lsn ^ mix64(generation) ^ mix64(size ^ 0x5741_4c43_4b53_554d))
}

/// A single log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord<R> {
    /// Log sequence number, strictly increasing.
    pub lsn: u64,
    /// The logged payload (operation, change-log entry, …).
    pub payload: R,
    /// Whether the asynchronous side effect of this record has been applied
    /// remotely (and therefore does not need to be re-driven by recovery).
    pub applied: bool,
    /// Generation stamp: which crash epoch appended this record. Bumped by
    /// every [`Wal::recover_truncate`], so a record appended after a
    /// recovery can never be mistaken for a survivor of the previous life.
    pub generation: u64,
    /// Estimated on-media size in bytes, supplied by the caller at append
    /// time; feeds [`Wal::bytes`] and the recovery-work byte accounting.
    pub size: u64,
    /// The modeled on-media checksum. Matches [`record_checksum`] for an
    /// intact record; a torn write leaves a mismatch for recovery to find.
    checksum: u64,
}

impl<R> WalRecord<R> {
    /// True when the record's checksum verifies (the write completed).
    pub fn is_intact(&self) -> bool {
        self.checksum == record_checksum(self.lsn, self.generation, self.size)
    }
}

/// What a torn-tail crash did to the unflushed suffix
/// ([`Wal::crash_apply`]), for fault-injection logs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TornTail {
    /// Unflushed records that survived intact.
    pub kept: usize,
    /// Unflushed records left torn (checksum mismatch).
    pub torn: usize,
    /// Unflushed records dropped entirely (lost or reordered away).
    pub dropped: usize,
}

/// What recovery found and removed ([`Wal::recover_truncate`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TornTailReport {
    /// Records truncated from the tail (torn, or unreachable past a gap a
    /// dropped record left — a reordered write past a hole cannot be
    /// trusted).
    pub truncated: usize,
    /// How many of the truncated records failed their checksum.
    pub torn: usize,
}

/// An append-only write-ahead log with an explicit durable watermark.
///
/// The log survives simulated crashes: the cluster harness keeps it alive
/// while the server's volatile state is dropped and rebuilt.
#[derive(Debug, Clone)]
pub struct Wal<R> {
    records: Vec<WalRecord<R>>,
    next_lsn: u64,
    /// Highest LSN known durable: records at or below survive any crash
    /// bit-exactly; records above are volatile until the next [`Wal::flush`].
    flushed: u64,
    /// Current crash epoch, stamped into appended records.
    generation: u64,
    /// The LSN each generation's appends start at (index `generation - 1`):
    /// where its recovery left `next_lsn`. The LSNs between a generation's
    /// last survivor and the next generation's start were truncated or
    /// dropped for good, so that gap is not a hole a later recovery must
    /// cut at. Part of the media state, like the records.
    generation_starts: Vec<u64>,
    /// Number of bytes the log would occupy on persistent media, estimated
    /// by the caller via [`Wal::append_sized`]; used for reporting only.
    bytes: u64,
    appends: u64,
    /// Bytes the durable watermark has advanced over — the flushed
    /// counterpart of [`Wal::bytes`]. The gap between the two is the
    /// crash-vulnerable suffix; after recovery the survivors' bytes are
    /// credited here (whatever survived a crash is by definition on media).
    flushed_bytes: u64,
    /// Records [`Wal::mark_applied_where`] visited over the log's lifetime:
    /// what the discards cost the host, as an exact count.
    mark_visits: u64,
}

impl<R> Default for Wal<R> {
    fn default() -> Self {
        Wal {
            records: Vec::new(),
            next_lsn: 1,
            flushed: 0,
            generation: 1,
            generation_starts: vec![1],
            bytes: 0,
            appends: 0,
            flushed_bytes: 0,
            mark_visits: 0,
        }
    }
}

impl<R: Clone> Wal<R> {
    /// Creates an empty log starting at LSN 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record with its estimated on-media size in bytes and
    /// returns its LSN. The record is *volatile* until a later
    /// [`Wal::flush`] advances the durable watermark past it.
    ///
    /// There is deliberately no size-less variant: an earlier `append`
    /// defaulted the size to 0, which silently under-reported
    /// [`Wal::bytes`] and the recovery-work numbers derived from it.
    pub fn append_sized(&mut self, payload: R, size: u64) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records.push(WalRecord {
            lsn,
            payload,
            applied: false,
            generation: self.generation,
            size,
            checksum: record_checksum(lsn, self.generation, size),
        });
        self.bytes += size;
        self.appends += 1;
        lsn
    }

    /// The appended-but-not-yet-flushed records, newest first. Records are in
    /// LSN order, so they are a suffix of the log: walking it from the tail
    /// costs the length of the suffix, not of the log.
    fn unflushed(&self) -> impl Iterator<Item = &WalRecord<R>> {
        let flushed = self.flushed;
        self.records
            .iter()
            .rev()
            .take_while(move |r| r.lsn > flushed)
    }

    /// Advances the durable watermark over every appended record (group
    /// commit: one flush persists the whole volatile suffix, whichever
    /// operations appended it). Returns how many records became durable.
    pub fn flush(&mut self) -> usize {
        let (newly, bytes) = self
            .unflushed()
            .fold((0, 0), |(n, bytes), r| (n + 1, bytes + r.size));
        self.flushed_bytes += bytes;
        self.flushed = self.flushed.max(self.next_lsn.saturating_sub(1));
        newly
    }

    /// The durable watermark: the highest LSN guaranteed to survive a crash.
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Number of appended-but-not-yet-flushed records (the crash-vulnerable
    /// suffix).
    pub fn unflushed_len(&self) -> usize {
        self.unflushed().count()
    }

    /// The retained record with the given LSN, searched from the tail: the
    /// callers ask for a record they appended a moment ago.
    pub fn recent(&self, lsn: u64) -> Option<&WalRecord<R>> {
        self.records
            .iter()
            .rev()
            .take_while(|r| r.lsn >= lsn)
            .last()
            .filter(|r| r.lsn == lsn)
    }

    /// The current crash epoch (bumped by every [`Wal::recover_truncate`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Applies a torn-write crash to the log: the flushed prefix survives
    /// bit-exactly; each unflushed record is independently kept, torn
    /// (checksum corrupted) or dropped, drawn deterministically from
    /// `tear_seed` so the same seed reproduces the same media state.
    /// Dropping a record mid-suffix models write reordering: a later record
    /// that did reach the platter is unreachable past the hole, and
    /// recovery must not trust it.
    pub fn crash_apply(&mut self, tear_seed: u64) -> TornTail {
        let mut out = TornTail::default();
        let flushed = self.flushed;
        self.records.retain_mut(|r| {
            if r.lsn <= flushed {
                return true;
            }
            match mix64(tear_seed ^ r.lsn.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 4 {
                0 | 1 => {
                    out.kept += 1;
                    true
                }
                2 => {
                    // Torn: the header checksum no longer verifies.
                    r.checksum ^= 0xdead_beef_dead_beef;
                    out.torn += 1;
                    true
                }
                _ => {
                    out.dropped += 1;
                    false
                }
            }
        });
        out
    }

    /// Recovery-side torn-tail detection: keeps the longest prefix whose
    /// records all verify their checksum and are LSN-contiguous, truncates
    /// everything after the first torn record or gap, advances the durable
    /// watermark to the survivor (whatever survived a crash is by
    /// definition on media) and bumps the generation stamp. `next_lsn` is
    /// deliberately left at its high-water mark: a truncated LSN is never
    /// reissued, so it can never collide with id-based duplicate
    /// suppression built from the replayed log. The gap that leaves before
    /// the next generation's first record is not a hole: a record that
    /// starts its generation follows whatever an earlier recovery kept.
    pub fn recover_truncate(&mut self) -> TornTailReport {
        let mut cut = 0usize;
        let mut prev: Option<&WalRecord<R>> = None;
        for r in &self.records {
            let starts_generation =
                self.generation_starts.get(r.generation as usize - 1) == Some(&r.lsn);
            let contiguous = prev.is_none_or(|p| {
                r.lsn == p.lsn + 1 || r.generation > p.generation && starts_generation
            });
            if !contiguous || !r.is_intact() {
                break;
            }
            prev = Some(r);
            cut += 1;
        }
        let torn = self.records[cut..]
            .iter()
            .filter(|r| !r.is_intact())
            .count();
        let truncated = self.records.len() - cut;
        self.records.truncate(cut);
        if let Some(last) = self.records.last() {
            if last.lsn > self.flushed {
                // Unflushed survivors are on media after all; credit them.
                self.flushed_bytes += self.unflushed().map(|r| r.size).sum::<u64>();
            }
            self.flushed = self.flushed.max(last.lsn);
        }
        self.generation += 1;
        self.generation_starts.push(self.next_lsn);
        TornTailReport { truncated, torn }
    }

    /// Marks unapplied records matching the predicate as applied, newest
    /// first, until `expect` of them changed state; returns how many did.
    ///
    /// The callers mark the records of change-log entries a directory owner
    /// just acknowledged. Those were appended a moment ago compared with the
    /// log's retained length, so walking back from the tail and stopping at
    /// the expected count costs the distance to the oldest of them, not the
    /// length of the log. A caller that expects more matches than the log
    /// holds pays the full walk, as every call used to.
    pub fn mark_applied_where(&mut self, expect: usize, mut pred: impl FnMut(&R) -> bool) -> usize {
        let mut n = 0;
        for r in self.records.iter_mut().rev() {
            if n == expect {
                break;
            }
            self.mark_visits += 1;
            if !r.applied && pred(&r.payload) {
                r.applied = true;
                n += 1;
            }
        }
        n
    }

    /// All records in LSN order.
    pub fn records(&self) -> &[WalRecord<R>] {
        &self.records
    }

    /// Records not yet marked applied, in LSN order. These are what recovery
    /// must re-drive.
    pub fn unapplied(&self) -> impl Iterator<Item = &WalRecord<R>> {
        self.records.iter().filter(|r| !r.applied)
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total appends performed over the log's lifetime.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Estimated persistent size in bytes (lifetime appended).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes the durable watermark has advanced over (lifetime flushed).
    /// Never exceeds [`Wal::bytes`]; the difference is whatever is still
    /// sitting in the crash-vulnerable unflushed suffix.
    pub fn flushed_bytes(&self) -> u64 {
        self.flushed_bytes
    }

    /// Records visited by every [`Wal::mark_applied_where`] so far.
    pub fn mark_visits(&self) -> u64 {
        self.mark_visits
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Drops every record with `lsn <= up_to`. Used after a checkpoint: the
    /// checkpointed state already reflects those records. The checkpoint is
    /// modeled atomic and durable, so the watermark advances with it.
    pub fn truncate_through(&mut self, up_to: u64) -> usize {
        let before = self.records.len();
        // The checkpoint is modeled atomic and durable, so any unflushed
        // record it covers becomes durable with it.
        self.flushed_bytes += self
            .records
            .iter()
            .filter(|r| r.lsn > self.flushed && r.lsn <= up_to)
            .map(|r| r.size)
            .sum::<u64>();
        self.records.retain(|r| r.lsn > up_to);
        self.flushed = self.flushed.max(up_to);
        before - self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsns_are_monotonic_from_one() {
        let mut wal = Wal::new();
        assert_eq!(wal.append_sized("a", 8), 1);
        assert_eq!(wal.append_sized("b", 8), 2);
        assert_eq!(wal.append_sized("c", 8), 3);
        assert_eq!(wal.next_lsn(), 4);
        assert_eq!(wal.len(), 3);
        assert_eq!(wal.appends(), 3);
    }

    #[test]
    fn flushed_bytes_track_the_durable_watermark() {
        let mut wal = Wal::new();
        wal.append_sized("a", 100);
        wal.append_sized("b", 50);
        assert_eq!(wal.bytes(), 150);
        assert_eq!(wal.flushed_bytes(), 0);
        assert_eq!(wal.flush(), 2);
        assert_eq!(wal.flushed_bytes(), 150);
        // Re-flushing with nothing new appended credits nothing twice.
        assert_eq!(wal.flush(), 0);
        assert_eq!(wal.flushed_bytes(), 150);
        wal.append_sized("c", 25);
        assert_eq!(wal.bytes(), 175);
        assert_eq!(wal.flushed_bytes(), 150);
        assert_eq!(wal.flush(), 1);
        assert_eq!(wal.flushed_bytes(), 175);
        assert!(wal.flushed_bytes() <= wal.bytes());
    }

    #[test]
    fn recovery_survivors_are_credited_as_flushed_bytes() {
        let mut wal = Wal::new();
        wal.append_sized("durable", 40);
        wal.flush();
        // An unflushed suffix that happens to survive the crash bit-exactly
        // (tear seed chosen so the single record is kept).
        wal.append_sized("survivor", 60);
        let mut seed = 0;
        let tail = loop {
            let mut probe = wal.clone();
            let tail = probe.crash_apply(seed);
            if tail.kept == 1 {
                wal = probe;
                break tail;
            }
            seed += 1;
        };
        assert_eq!(tail.kept, 1);
        assert_eq!(wal.flushed_bytes(), 40);
        wal.recover_truncate();
        assert_eq!(wal.flushed_bytes(), 100);
        assert_eq!(wal.flushed(), 2);
    }

    #[test]
    fn applied_marks_filter_unapplied() {
        let mut wal = Wal::new();
        wal.append_sized("x", 4);
        let l2 = wal.append_sized("y", 4);
        assert_eq!(wal.mark_applied_where(1, |r| *r == "x"), 1);
        assert_eq!(wal.mark_applied_where(1, |r| *r == "z"), 0);
        let un: Vec<_> = wal.unapplied().map(|r| r.lsn).collect();
        assert_eq!(un, vec![l2]);
    }

    #[test]
    fn mark_applied_where_counts() {
        let mut wal = Wal::new();
        wal.append_sized(1u32, 4);
        wal.append_sized(2, 4);
        wal.append_sized(3, 4);
        assert_eq!(wal.mark_applied_where(usize::MAX, |v| *v % 2 == 1), 2);
        assert_eq!(wal.unapplied().count(), 1);
        // Already-applied records are not re-counted.
        assert_eq!(wal.mark_applied_where(usize::MAX, |_| true), 1);
    }

    #[test]
    fn mark_applied_where_stops_at_the_expected_count() {
        let mut wal = Wal::new();
        for v in 0..100u32 {
            wal.append_sized(v, 4);
        }
        // The two matches sit near the tail: the walk must not go past the
        // older one.
        let mut looked_at = Vec::new();
        let n = wal.mark_applied_where(2, |v| {
            looked_at.push(*v);
            *v == 95 || *v == 97
        });
        assert_eq!(n, 2);
        assert_eq!(looked_at, vec![99, 98, 97, 96, 95]);
        let applied: Vec<u32> = wal
            .records()
            .iter()
            .filter(|r| r.applied)
            .map(|r| r.payload)
            .collect();
        assert_eq!(applied, vec![95, 97]);
        // Fewer matches than expected: the whole log is walked, once.
        looked_at.clear();
        assert_eq!(
            wal.mark_applied_where(3, |v| {
                looked_at.push(*v);
                *v == 1
            }),
            1
        );
        assert_eq!(looked_at.len(), 98);
        assert_eq!(wal.mark_applied_where(0, |_| unreachable!()), 0);
        // Every record passed counts as a visit, already applied or not.
        assert_eq!(wal.mark_visits(), 5 + 100);
    }

    #[test]
    fn truncate_through_drops_prefix() {
        let mut wal = Wal::new();
        for i in 0..10u32 {
            wal.append_sized(i, 4);
        }
        assert_eq!(wal.truncate_through(4), 4);
        assert_eq!(wal.len(), 6);
        assert_eq!(wal.records()[0].lsn, 5);
        // LSNs keep increasing after truncation.
        assert_eq!(wal.append_sized(99, 4), 11);
    }

    #[test]
    fn sized_appends_accumulate_bytes() {
        let mut wal = Wal::new();
        wal.append_sized("a", 100);
        wal.append_sized("b", 50);
        assert_eq!(wal.bytes(), 150);
    }

    #[test]
    fn flush_advances_the_watermark() {
        let mut wal = Wal::new();
        wal.append_sized("a", 8);
        wal.append_sized("b", 8);
        assert_eq!(wal.flushed(), 0);
        assert_eq!(wal.unflushed_len(), 2);
        assert_eq!(wal.flush(), 2);
        assert_eq!(wal.flushed(), 2);
        assert_eq!(wal.unflushed_len(), 0);
        wal.append_sized("c", 8);
        assert_eq!(wal.unflushed_len(), 1);
        // A second flush only counts the new suffix.
        assert_eq!(wal.flush(), 1);
    }

    #[test]
    fn recent_finds_a_record_from_the_tail() {
        let mut wal = Wal::new();
        for i in 0..6u32 {
            wal.append_sized(i, 8);
        }
        wal.truncate_through(2);
        assert_eq!(wal.recent(6).map(|r| r.payload), Some(5));
        assert_eq!(wal.recent(3).map(|r| r.payload), Some(2));
        // Truncated away, dropped from the middle, or never appended.
        assert!(wal.recent(2).is_none());
        wal.records.retain(|r| r.lsn != 5);
        assert!(wal.recent(5).is_none());
        assert!(wal.recent(7).is_none());
    }

    #[test]
    fn crash_preserves_the_flushed_prefix_exactly() {
        let mut wal = Wal::new();
        for i in 0..4u32 {
            wal.append_sized(i, 8);
        }
        wal.flush();
        for i in 4..12u32 {
            wal.append_sized(i, 8);
        }
        let tail = wal.crash_apply(7);
        assert_eq!(tail.kept + tail.torn + tail.dropped, 8);
        // The flushed prefix is untouched and intact.
        assert!(wal.records().iter().take(4).all(|r| r.is_intact()));
        assert_eq!(wal.records()[3].lsn, 4);
        let report = wal.recover_truncate();
        assert_eq!(report.torn, tail.torn);
        // Everything surviving recovery verifies and is contiguous.
        assert!(wal.records().iter().all(|r| r.is_intact()));
        assert!(wal.records().windows(2).all(|w| w[1].lsn == w[0].lsn + 1));
        assert!(wal.len() >= 4);
    }

    #[test]
    fn recovery_never_reuses_a_truncated_lsn_and_bumps_generation() {
        let mut wal = Wal::new();
        wal.append_sized(0u32, 8);
        wal.flush();
        for i in 1..8u32 {
            wal.append_sized(i, 8);
        }
        let pre_crash_next = wal.next_lsn();
        let gen_before = wal.generation();
        // A seed whose draws tear at least one record in 7 tries (seed 1
        // does for this LSN range; the assert keeps the test honest).
        let tail = wal.crash_apply(1);
        assert!(tail.torn + tail.dropped > 0, "seed must perturb the tail");
        let report = wal.recover_truncate();
        assert!(report.truncated > 0);
        let new_lsn = wal.append_sized(99, 8);
        assert!(
            new_lsn >= pre_crash_next,
            "a torn LSN must never be reissued ({new_lsn} < {pre_crash_next})"
        );
        assert_eq!(wal.generation(), gen_before + 1);
        assert_eq!(wal.records().last().unwrap().generation, gen_before + 1);
    }

    #[test]
    fn a_gap_invalidates_everything_past_it() {
        let mut wal = Wal::new();
        for i in 0..6u32 {
            wal.append_sized(i, 8);
        }
        wal.flush();
        // Three unflushed records; drop the middle one by hand to model a
        // reordered write (5 and 7 persisted, 6 never did).
        wal.append_sized(6u32, 8); // lsn 7
        wal.append_sized(7u32, 8); // lsn 8
        wal.append_sized(8u32, 8); // lsn 9
        wal.records.retain(|r| r.lsn != 8);
        let report = wal.recover_truncate();
        // LSN 9 is intact but unreachable past the hole at 8.
        assert_eq!(report.truncated, 1);
        assert_eq!(report.torn, 0);
        assert_eq!(wal.records().last().unwrap().lsn, 7);
    }

    #[test]
    fn a_later_recovery_keeps_what_was_appended_after_an_earlier_one() {
        let mut wal = Wal::new();
        wal.append_sized(0u32, 8);
        wal.flush();
        // The whole unflushed tail (LSNs 2 and 3) is dropped: the first
        // recovery sees no gap, and the next generation starts at LSN 4.
        wal.append_sized(1, 8);
        wal.append_sized(2, 8);
        wal.records.retain(|r| r.lsn == 1);
        assert_eq!(wal.recover_truncate(), TornTailReport::default());
        assert_eq!(wal.append_sized(3, 8), 4);
        wal.append_sized(4, 8);
        wal.flush();
        // A second crash drops only an unflushed record: what was flushed
        // after the first recovery survives the second.
        wal.append_sized(5, 8);
        wal.records.retain(|r| r.lsn != 6);
        assert_eq!(wal.recover_truncate().truncated, 0);
        let lsns = |wal: &Wal<u32>| wal.records().iter().map(|r| r.lsn).collect::<Vec<_>>();
        assert_eq!(lsns(&wal), [1, 4, 5]);
        // A generation that lost its first record still cuts there.
        let first = wal.append_sized(6, 8);
        wal.append_sized(7, 8);
        wal.records.retain(|r| r.lsn != first);
        assert_eq!(wal.recover_truncate().truncated, 1);
        assert_eq!(lsns(&wal), [1, 4, 5]);
    }

    #[test]
    fn recover_truncate_is_a_noop_on_a_clean_log() {
        let mut wal = Wal::new();
        for i in 0..5u32 {
            wal.append_sized(i, 8);
        }
        wal.flush();
        let report = wal.recover_truncate();
        assert_eq!(report, TornTailReport::default());
        assert_eq!(wal.len(), 5);
        // Watermark follows the survivors even when the crash predated the
        // last flush bookkeeping.
        assert_eq!(wal.flushed(), 5);
    }
}
