//! Incremental (streaming) mining and metric aggregation.
//!
//! Every quantity the analysis produces — pattern instances, [`Metrics`],
//! [`ThreadProfile`] and the regularity gate's inputs — is *foldable*: it
//! can be maintained one event at a time with O(1) state per (thread,
//! track) plus the list of finalized pattern instances. This module holds
//! those folds, and [`IncrementalAnalyzer`] bundles them. It is the only
//! analysis path: [`crate::analysis::analyze`] folds a complete
//! [`RuntimeProfile`] through it, and the streaming analyzer folds the same
//! state one batch at a time, so post-mortem and streaming analysis agree by
//! construction.
//!
//! The state that grows with the profile is the finalized-pattern list and
//! the sequence numbers of `Sort` events (needed for the Sort-After-Insert
//! metric; sorts are rare). Memory is therefore O(patterns), with no cap.
//! Raw events are never retained.
//!
//! [`RuntimeProfile`]: dsspy_events::RuntimeProfile

use std::collections::HashMap;

use dsspy_events::{AccessClass, AccessEvent, AccessKind, ThreadTag};

use crate::analysis::{Metrics, ProfileAnalysis, LONG_READ_COVERAGE};
use crate::kind::PatternKind;
use crate::regularity::{RegularityConfig, RegularityVerdict};
use crate::run::{MinerConfig, PatternInstance};
use crate::threads::ThreadProfile;

/// Which track an event belongs to (read, write, insert, delete).
pub(crate) fn track_of(kind: AccessKind) -> Option<usize> {
    match kind {
        AccessKind::Read => Some(0),
        AccessKind::Write => Some(1),
        AccessKind::Insert => Some(2),
        AccessKind::Delete => Some(3),
        _ => None,
    }
}

/// Whether an insert event landed at the front of the structure.
fn insert_at_front(e: &AccessEvent) -> bool {
    e.index() == Some(0)
}

/// Whether an insert event was appended at the back. At insert time `len`
/// is the *new* length, so an append has `index == len - 1`.
fn insert_at_back(e: &AccessEvent) -> bool {
    match e.index() {
        Some(i) => e.len > 0 && i == e.len - 1,
        None => false,
    }
}

/// Whether a delete event removed the front element.
fn delete_at_front(e: &AccessEvent) -> bool {
    e.index() == Some(0)
}

/// Whether a delete event removed the back element. At delete time `len` is
/// the *new* (shrunk) length, so a back-removal has `index == len`.
fn delete_at_back(e: &AccessEvent) -> bool {
    e.index() == Some(e.len)
}

/// Direction state of a read/write run.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Dir {
    Unknown,
    Forward,
    Backward,
}

/// Compact accumulator for one in-progress run.
///
/// Emitting a [`PatternInstance`] only ever needs aggregate facts about the
/// run's events — first/last timestamps, length, index extent, peak
/// structure length, direction, end viability and the previous index — so
/// the accumulator stores exactly those. O(1) per track, which is what
/// bounds streaming memory.
#[derive(Clone, Copy, Debug)]
struct TrackAcc {
    len: usize,
    first_seq: u64,
    last_seq: u64,
    lo: u32,
    hi: u32,
    max_struct_len: u32,
    last_index: u32,
    dir: Dir,
    // For insert/delete tracks: which end-classifications are still viable.
    front_ok: bool,
    back_ok: bool,
}

impl TrackAcc {
    fn new() -> TrackAcc {
        TrackAcc {
            len: 0,
            first_seq: 0,
            last_seq: 0,
            lo: u32::MAX,
            hi: 0,
            max_struct_len: 0,
            last_index: 0,
            dir: Dir::Unknown,
            front_ok: true,
            back_ok: true,
        }
    }

    /// Index of the last event in the run, if the run is non-empty. Every
    /// event that enters a track carries an index (index-less positional
    /// events break the run before this point).
    fn last_index(&self) -> Option<u32> {
        (self.len > 0).then_some(self.last_index)
    }

    fn push(&mut self, e: &AccessEvent, idx: u32) {
        if self.len == 0 {
            self.first_seq = e.seq;
        }
        self.len += 1;
        self.last_seq = e.seq;
        self.lo = self.lo.min(idx);
        self.hi = self.hi.max(idx);
        self.max_struct_len = self.max_struct_len.max(e.len);
        self.last_index = idx;
    }

    fn emit(
        &mut self,
        kind: Option<PatternKind>,
        min_len: usize,
        thread: ThreadTag,
        sink: &mut impl FnMut(PatternInstance),
    ) {
        if self.len >= min_len {
            if let Some(kind) = kind {
                sink(PatternInstance {
                    kind,
                    thread,
                    first_seq: self.first_seq,
                    last_seq: self.last_seq,
                    len: self.len,
                    lo: if self.lo == u32::MAX { 0 } else { self.lo },
                    hi: self.hi,
                    max_struct_len: self.max_struct_len,
                });
            }
        }
        *self = TrackAcc::new();
    }
}

/// The per-thread four-track run state machine.
///
/// This *is* the miner. [`IncrementalAnalyzer`] keeps one per thread and
/// routes each event to its thread's machine, so interleaved threads are
/// untangled without copying per-thread slices.
#[derive(Clone, Debug)]
pub struct ThreadMiner {
    thread: ThreadTag,
    // One accumulator per track: read, write, insert, delete.
    accs: [TrackAcc; 4],
}

impl ThreadMiner {
    /// A fresh miner for one thread's event stream.
    pub fn new(thread: ThreadTag) -> ThreadMiner {
        ThreadMiner {
            thread,
            accs: [
                TrackAcc::new(),
                TrackAcc::new(),
                TrackAcc::new(),
                TrackAcc::new(),
            ],
        }
    }

    /// The thread this miner segments.
    pub fn thread(&self) -> ThreadTag {
        self.thread
    }

    fn kind_of(track: usize, acc: &TrackAcc) -> Option<PatternKind> {
        match track {
            // Read/write runs classify by direction.
            0 => match acc.dir {
                Dir::Forward => Some(PatternKind::ReadForward),
                Dir::Backward => Some(PatternKind::ReadBackward),
                Dir::Unknown => None,
            },
            1 => match acc.dir {
                Dir::Forward => Some(PatternKind::WriteForward),
                Dir::Backward => Some(PatternKind::WriteBackward),
                Dir::Unknown => None,
            },
            // Prefer the back classification: appending is by far the common
            // case, and a run of appends to an initially empty list satisfies
            // both predicates on its first event.
            2 => {
                if acc.back_ok {
                    Some(PatternKind::InsertBack)
                } else if acc.front_ok {
                    Some(PatternKind::InsertFront)
                } else {
                    None
                }
            }
            _ => {
                if acc.back_ok {
                    Some(PatternKind::DeleteBack)
                } else if acc.front_ok {
                    Some(PatternKind::DeleteFront)
                } else {
                    None
                }
            }
        }
    }

    fn emit_track(&mut self, track: usize, min_len: usize, sink: &mut impl FnMut(PatternInstance)) {
        let kind = Self::kind_of(track, &self.accs[track]);
        self.accs[track].emit(kind, min_len, self.thread, sink);
    }

    /// Advance the machine by one event, emitting any run the event closes.
    ///
    /// Compound kinds (Search, Sort, Clear, ...) live outside the positional
    /// tracks and are transparent. Events must arrive in the thread's
    /// chronological order.
    pub fn push(
        &mut self,
        e: &AccessEvent,
        min_len: usize,
        sink: &mut impl FnMut(PatternInstance),
    ) {
        let Some(track) = track_of(e.kind) else {
            return; // compound events live outside the positional tracks
        };
        let Some(idx) = e.index() else {
            // Positional kind without an index (shouldn't happen from our
            // wrappers, but profiles may come from elsewhere): break the run.
            self.emit_track(track, min_len, sink);
            return;
        };

        match track {
            0 | 1 => {
                // Read/Write tracks: adjacent monotone indices.
                let acc = &self.accs[track];
                let extend = match acc.last_index() {
                    None => true,
                    Some(prev) => match acc.dir {
                        Dir::Unknown => idx == prev + 1 || (prev > 0 && idx == prev - 1),
                        Dir::Forward => idx == prev + 1,
                        Dir::Backward => prev > 0 && idx == prev - 1,
                    },
                };
                if !extend {
                    // Runs are disjoint: the breaker starts a fresh run, it
                    // does not chain with the old run's tail.
                    self.emit_track(track, min_len, sink);
                }
                let acc = &mut self.accs[track];
                if let Some(prev) = acc.last_index() {
                    if acc.dir == Dir::Unknown {
                        acc.dir = if idx == prev + 1 {
                            Dir::Forward
                        } else {
                            Dir::Backward
                        };
                    }
                }
                acc.push(e, idx);
            }
            2 => {
                let front = insert_at_front(e);
                let back = insert_at_back(e);
                let acc = &self.accs[2];
                let new_front = acc.front_ok && front;
                let new_back = acc.back_ok && back;
                let compatible = (new_front || new_back) && (front || back);
                // Additionally, a back-run must be *contiguous*: each append
                // lands one past the previous one. A Clear between appends
                // resets the index to 0, which (by front/back flags alone)
                // could still look front-compatible; require monotone growth
                // for back runs so refill phases separate.
                let contiguous = match acc.last_index() {
                    // Front inserts always land at 0, so only back runs are
                    // constrained.
                    Some(prev) if new_back => idx == prev + 1,
                    _ => true,
                };
                if acc.len == 0 {
                    if front || back {
                        let acc = &mut self.accs[2];
                        acc.front_ok = front;
                        acc.back_ok = back;
                        acc.push(e, idx);
                    }
                    // Middle inserts never start a run.
                } else if compatible && contiguous {
                    let acc = &mut self.accs[2];
                    acc.front_ok = new_front;
                    acc.back_ok = new_back;
                    acc.push(e, idx);
                } else {
                    self.emit_track(2, min_len, sink);
                    if front || back {
                        let acc = &mut self.accs[2];
                        acc.front_ok = front;
                        acc.back_ok = back;
                        acc.push(e, idx);
                    }
                }
            }
            _ => {
                let front = delete_at_front(e);
                let back = delete_at_back(e);
                let acc = &self.accs[3];
                let new_front = acc.front_ok && front;
                let new_back = acc.back_ok && back;
                if acc.len == 0 {
                    if front || back {
                        let acc = &mut self.accs[3];
                        acc.front_ok = front;
                        acc.back_ok = back;
                        acc.push(e, idx);
                    }
                } else if new_front || new_back {
                    let acc = &mut self.accs[3];
                    acc.front_ok = new_front;
                    acc.back_ok = new_back;
                    acc.push(e, idx);
                } else {
                    self.emit_track(3, min_len, sink);
                    if front || back {
                        let acc = &mut self.accs[3];
                        acc.front_ok = front;
                        acc.back_ok = back;
                        acc.push(e, idx);
                    }
                }
            }
        }
    }

    /// End-of-stream: emit whatever runs are still open, in track order.
    pub fn flush(&mut self, min_len: usize, sink: &mut impl FnMut(PatternInstance)) {
        for track in 0..4 {
            self.emit_track(track, min_len, sink);
        }
    }
}

/// Foldable aggregates over finalized [`PatternInstance`]s: everything the
/// metric and regularity passes need from the pattern list, maintained O(1)
/// per emission.
#[derive(Clone, Debug, Default)]
pub struct PatternAggregates {
    /// Instances per pattern kind, indexed by [`PatternKind::ALL`] position.
    counts: [usize; 8],
    /// Longest run per pattern kind (events).
    max_run_len: [usize; 8],
    insert_pattern_count: usize,
    longest_insert_run: usize,
    insert_ticks: u64,
    insert_events: usize,
    read_pattern_count: usize,
    long_read_pattern_count: usize,
    events_in_read_patterns: usize,
    min_insert_last_seq: Option<u64>,
}

impl PatternAggregates {
    /// Fold one finalized pattern instance.
    pub fn add(&mut self, p: &PatternInstance) {
        let slot = PatternKind::ALL
            .iter()
            .position(|k| *k == p.kind)
            .expect("PatternKind::ALL covers every kind");
        self.counts[slot] += 1;
        self.max_run_len[slot] = self.max_run_len[slot].max(p.len);
        if p.kind.is_insert() {
            self.insert_pattern_count += 1;
            self.longest_insert_run = self.longest_insert_run.max(p.len);
            self.insert_ticks += p.duration_ticks();
            self.insert_events += p.len;
            self.min_insert_last_seq = Some(
                self.min_insert_last_seq
                    .map_or(p.last_seq, |s| s.min(p.last_seq)),
            );
        }
        if p.kind.is_read() {
            self.read_pattern_count += 1;
            self.events_in_read_patterns += p.len;
            if p.coverage() >= LONG_READ_COVERAGE {
                self.long_read_pattern_count += 1;
            }
        }
    }

    /// The regularity gate (Table II) computed from the aggregates — equal
    /// to [`crate::regularity::regularity`] over the full pattern list.
    pub fn regularity(&self, config: &RegularityConfig) -> RegularityVerdict {
        let mut kinds = Vec::new();
        for (i, kind) in PatternKind::ALL.iter().enumerate() {
            let recurring = self.counts[i] >= config.min_recurrences;
            let single_long = self.counts[i] > 0 && self.max_run_len[i] >= config.min_single_run;
            if recurring || single_long {
                kinds.push(*kind);
            }
        }
        if kinds.is_empty() {
            RegularityVerdict::Irregular
        } else {
            RegularityVerdict::Regular(kinds)
        }
    }
}

/// Foldable raw-event aggregates: one `fold` call per event maintains every
/// per-event quantity of [`Metrics`]; [`MetricsFold::finish`] combines them
/// with [`PatternAggregates`] into the exact batch metrics.
#[derive(Clone, Debug, Default)]
pub struct MetricsFold {
    total_events: usize,
    by_kind: [usize; 11],
    reads: usize,
    writes: usize,
    max_struct_len: u32,
    first_seq: Option<u64>,
    last_seq: u64,
    read_or_search: usize,
    positional: usize,
    front: usize,
    back: usize,
    insert_front: usize,
    insert_back: usize,
    delete_front: usize,
    delete_back: usize,
    insert_ops: usize,
    delete_ops: usize,
    resize_ops: usize,
    sort_ops: usize,
    search_ops: usize,
    insert_delete_alternations: usize,
    last_mut_was_insert: Option<bool>,
    // Trailing-unread-writes state machine: Writes since the last event that
    // was neither a Write nor transparent teardown (Clear/Delete). Equal to
    // the batch pass's backward scan at any prefix.
    trailing_unread_writes: usize,
    // Sequence numbers of Sort events, in arrival order. Needed because the
    // earliest insert-pattern end is only known at snapshot time. Sorts are
    // rare, so this is the one per-event-kind list we keep.
    sort_seqs: Vec<u64>,
}

impl MetricsFold {
    /// Fold one event (events must arrive in profile order).
    pub fn fold(&mut self, e: &AccessEvent) {
        self.total_events += 1;
        if self.first_seq.is_none() {
            self.first_seq = Some(e.seq);
        }
        self.last_seq = e.seq;
        self.by_kind[e.kind as usize] += 1;
        match e.class() {
            AccessClass::Read => self.reads += 1,
            AccessClass::Write => self.writes += 1,
        }
        self.max_struct_len = self.max_struct_len.max(e.len);
        if matches!(e.kind, AccessKind::Read | AccessKind::Search) {
            self.read_or_search += 1;
        }
        match e.kind {
            AccessKind::Insert => {
                self.insert_ops += 1;
                if self.last_mut_was_insert == Some(false) {
                    self.insert_delete_alternations += 1;
                }
                self.last_mut_was_insert = Some(true);
            }
            AccessKind::Delete => {
                self.delete_ops += 1;
                if self.last_mut_was_insert == Some(true) {
                    self.insert_delete_alternations += 1;
                }
                self.last_mut_was_insert = Some(false);
            }
            AccessKind::Resize => self.resize_ops += 1,
            AccessKind::Sort => {
                self.sort_ops += 1;
                self.sort_seqs.push(e.seq);
            }
            AccessKind::Search => self.search_ops += 1,
            _ => {}
        }
        if e.kind.is_positional() {
            if let Some(i) = e.index() {
                self.positional += 1;
                // "Front" is index 0. "Back" is the last position, whose
                // encoding depends on the operation: appends have
                // i == len - 1, back-deletes have i == len (post-shrink).
                let at_front = i == 0;
                let at_back = match e.kind {
                    AccessKind::Delete => i == e.len,
                    _ => e.len > 0 && i == e.len - 1,
                };
                if at_front {
                    self.front += 1;
                }
                if at_back {
                    self.back += 1;
                }
                match e.kind {
                    AccessKind::Insert => {
                        if at_front && !at_back {
                            self.insert_front += 1;
                        } else if at_back {
                            self.insert_back += 1;
                        }
                    }
                    AccessKind::Delete => {
                        if at_front && !at_back {
                            self.delete_front += 1;
                        } else if at_back {
                            self.delete_back += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        // Write-Without-Read: count the trailing run of explicit element
        // overwrites ("all entries might be set to NULL", §III-B). Deletes
        // and whole-structure maintenance (Clear) are transparent — a
        // structure drained or cleared at end of life is normal teardown.
        match e.kind {
            AccessKind::Write => self.trailing_unread_writes += 1,
            AccessKind::Clear | AccessKind::Delete => {}
            _ => self.trailing_unread_writes = 0,
        }
    }

    /// Combine the per-event aggregates with the pattern aggregates into
    /// the exact [`Metrics`] the batch pass computes.
    pub fn finish(&self, patterns: &PatternAggregates) -> Metrics {
        let mut m = Metrics {
            total_events: self.total_events,
            duration_ticks: self
                .first_seq
                .map_or(0, |first| self.last_seq.saturating_sub(first)),
            ..Metrics::default()
        };
        m.by_kind = self.by_kind;
        m.reads = self.reads;
        m.writes = self.writes;
        m.max_struct_len = self.max_struct_len;
        m.insert_ops = self.insert_ops;
        m.delete_ops = self.delete_ops;
        m.resize_ops = self.resize_ops;
        m.sort_ops = self.sort_ops;
        m.search_ops = self.search_ops;
        m.insert_delete_alternations = self.insert_delete_alternations;
        m.trailing_unread_writes = self.trailing_unread_writes;

        if m.total_events > 0 {
            m.read_or_search_share = self.read_or_search as f64 / m.total_events as f64;
        }
        if self.positional > 0 {
            m.front_share = self.front as f64 / self.positional as f64;
            m.back_share = self.back as f64 / self.positional as f64;
        }

        // Two-different-ends: growth concentrates on one end, shrink (or
        // reads) on the other. Compare dominant insert end vs dominant
        // delete end.
        if m.insert_ops >= 1 && m.delete_ops >= 1 {
            let ins_front_dominant = self.insert_front > self.insert_back;
            let del_front_dominant = self.delete_front > self.delete_back;
            let ins_decided = self.insert_front != self.insert_back;
            let del_decided = self.delete_front != self.delete_back;
            if ins_decided && del_decided {
                m.two_ended = ins_front_dominant != del_front_dominant;
                m.common_end = ins_front_dominant == del_front_dominant;
            } else if !ins_decided && !del_decided && m.insert_ops + m.delete_ops > 0 {
                // Degenerate single-element churn: treat as common end.
                m.common_end = self.insert_front + self.delete_front > 0;
            }
            // Strictness for SI: *always* a common end means no stray
            // middle/other-end mutations at all.
            let stray_inserts = m.insert_ops - self.insert_front - self.insert_back;
            let stray_deletes = m.delete_ops - self.delete_front - self.delete_back;
            if stray_inserts > 0 || stray_deletes > 0 {
                m.common_end = false;
            }
        }

        // --- pattern-level aggregates ------------------------------------
        m.insert_pattern_count = patterns.insert_pattern_count;
        m.longest_insert_run = patterns.longest_insert_run;
        m.read_pattern_count = patterns.read_pattern_count;
        m.long_read_pattern_count = patterns.long_read_pattern_count;
        if m.total_events > 0 {
            m.read_pattern_event_share =
                patterns.events_in_read_patterns as f64 / m.total_events as f64;
        }
        m.insert_phase_share = if m.duration_ticks > 0 {
            (patterns.insert_ticks as f64 / m.duration_ticks as f64).min(1.0)
        } else if m.total_events > 0 {
            patterns.insert_events as f64 / m.total_events as f64
        } else {
            0.0
        };

        // Sort-After-Insert: a Sort event whose seq is after the end of some
        // insertion pattern.
        if m.sort_ops > 0 {
            if let Some(ins_end) = patterns.min_insert_last_seq {
                m.sorts_after_insert = self.sort_seqs.iter().filter(|&&s| s > ins_end).count();
            }
        }

        m
    }
}

/// Foldable thread-interaction facts ([`ThreadProfile`]).
#[derive(Clone, Debug, Default)]
pub struct ThreadFold {
    per_thread: HashMap<ThreadTag, usize>,
    switches: usize,
    prev: Option<ThreadTag>,
}

impl ThreadFold {
    /// Fold one event (events must arrive in profile order).
    pub fn fold(&mut self, e: &AccessEvent) {
        *self.per_thread.entry(e.thread).or_default() += 1;
        if let Some(p) = self.prev {
            if p != e.thread {
                self.switches += 1;
            }
        }
        self.prev = Some(e.thread);
    }

    /// The [`ThreadProfile`] of everything folded so far.
    pub fn snapshot(&self) -> ThreadProfile {
        let mut events_per_thread: Vec<(ThreadTag, usize)> =
            self.per_thread.iter().map(|(t, n)| (*t, *n)).collect();
        events_per_thread.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let total: usize = events_per_thread.iter().map(|(_, n)| n).sum();
        let dominant_share = events_per_thread
            .first()
            .map(|(_, n)| *n as f64 / total.max(1) as f64)
            .unwrap_or(0.0);
        ThreadProfile {
            thread_count: events_per_thread.len(),
            events_per_thread,
            switches: self.switches,
            dominant_share,
        }
    }
}

/// One instance's complete incremental analysis state: per-thread miners,
/// finalized patterns (+ aggregates), metric and thread folds.
///
/// Fold events with [`IncrementalAnalyzer::fold`]; take an exact
/// [`ProfileAnalysis`] + regularity verdict at any point with
/// [`IncrementalAnalyzer::snapshot`] — open runs are *virtually* flushed
/// (on clones of the compact accumulators), as at the end of a profile, so
/// a snapshot after any prefix equals the analysis of exactly that prefix.
#[derive(Clone, Debug)]
pub struct IncrementalAnalyzer {
    min_len: usize,
    miners: HashMap<ThreadTag, ThreadMiner>,
    finalized: Vec<PatternInstance>,
    aggs: PatternAggregates,
    metrics: MetricsFold,
    threads: ThreadFold,
    last_seq: Option<u64>,
    out_of_order: u64,
}

impl IncrementalAnalyzer {
    /// Fresh state with the given miner configuration.
    pub fn new(config: &MinerConfig) -> IncrementalAnalyzer {
        IncrementalAnalyzer {
            min_len: config.min_run_len.max(2),
            miners: HashMap::new(),
            finalized: Vec::new(),
            aggs: PatternAggregates::default(),
            metrics: MetricsFold::default(),
            threads: ThreadFold::default(),
            last_seq: None,
            out_of_order: 0,
        }
    }

    /// Fold one event. Events must arrive in profile (sequence) order;
    /// inversions are counted, not repaired.
    pub fn fold(&mut self, e: &AccessEvent) {
        if let Some(prev) = self.last_seq {
            if e.seq < prev {
                self.out_of_order += 1;
            }
        }
        self.last_seq = Some(e.seq);
        self.metrics.fold(e);
        self.threads.fold(e);
        let miner = self
            .miners
            .entry(e.thread)
            .or_insert_with(|| ThreadMiner::new(e.thread));
        let aggs = &mut self.aggs;
        let finalized = &mut self.finalized;
        miner.push(e, self.min_len, &mut |p| {
            aggs.add(&p);
            finalized.push(p);
        });
    }

    /// Events folded so far.
    pub fn event_count(&self) -> usize {
        self.metrics.total_events
    }

    /// Sequence-order inversions observed (0 for any collector-fed stream).
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Exact analysis of everything folded so far.
    ///
    /// Open runs are flushed on clones (the live accumulators keep
    /// extending), as at the end of a profile. Patterns are ordered by
    /// `first_seq`; with unique sequence numbers (always true for session
    /// captures) that order does not depend on how events were batched.
    pub fn snapshot(&self, regularity: &RegularityConfig) -> (ProfileAnalysis, RegularityVerdict) {
        let mut patterns = self.finalized.clone();
        let mut aggs = self.aggs.clone();
        // Virtual end-of-stream flush, threads ascending.
        let mut tags: Vec<ThreadTag> = self.miners.keys().copied().collect();
        tags.sort_unstable();
        for tag in tags {
            let mut miner = self.miners[&tag].clone();
            miner.flush(self.min_len, &mut |p| {
                aggs.add(&p);
                patterns.push(p);
            });
        }
        patterns.sort_by_key(|p| p.first_seq);
        let verdict = aggs.regularity(regularity);
        let metrics = self.metrics.finish(&aggs);
        let threads = self.threads.snapshot();
        (
            ProfileAnalysis {
                patterns,
                metrics,
                threads,
            },
            verdict,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regularity::regularity;
    use dsspy_events::Target;

    /// The reference the fold is checked against: untangle the
    /// events by thread, run each thread's slice through its own
    /// [`ThreadMiner`] and flush it, then order the patterns by start.
    /// Metrics and thread facts come from their folds over the whole
    /// stream.
    fn reference(events: &[AccessEvent], config: &MinerConfig) -> ProfileAnalysis {
        let min_len = config.min_run_len.max(2);
        let mut threads: Vec<ThreadTag> = events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        let mut patterns = Vec::new();
        for thread in threads {
            let mut miner = ThreadMiner::new(thread);
            let mut sink = |p: PatternInstance| patterns.push(p);
            for e in events.iter().filter(|e| e.thread == thread) {
                miner.push(e, min_len, &mut sink);
            }
            miner.flush(min_len, &mut sink);
        }
        patterns.sort_by_key(|p| p.first_seq);

        let mut metrics = MetricsFold::default();
        let mut thread_fold = ThreadFold::default();
        for e in events {
            metrics.fold(e);
            thread_fold.fold(e);
        }
        let mut aggs = PatternAggregates::default();
        for p in &patterns {
            aggs.add(p);
        }
        ProfileAnalysis {
            metrics: metrics.finish(&aggs),
            threads: thread_fold.snapshot(),
            patterns,
        }
    }

    fn assert_converges(events: Vec<AccessEvent>) {
        let miner_cfg = MinerConfig::default();
        let reg_cfg = RegularityConfig::default();
        let expected = reference(&events, &miner_cfg);
        let expected_verdict = regularity(&expected, &reg_cfg);

        let mut inc = IncrementalAnalyzer::new(&miner_cfg);
        for e in &events {
            inc.fold(e);
        }
        let (streamed, verdict) = inc.snapshot(&reg_cfg);

        assert_eq!(streamed.patterns, expected.patterns);
        assert_eq!(
            serde_json::to_string(&streamed.metrics).unwrap(),
            serde_json::to_string(&expected.metrics).unwrap()
        );
        assert_eq!(streamed.threads, expected.threads);
        assert_eq!(verdict, expected_verdict);
    }

    fn ev(seq: u64, kind: AccessKind, idx: u32, len: u32) -> AccessEvent {
        AccessEvent::at(seq, kind, idx, len)
    }

    #[test]
    fn converges_on_fill_then_scan() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..100u32 {
            events.push(ev(seq, AccessKind::Insert, i, i + 1));
            seq += 1;
        }
        for i in 0..100u32 {
            events.push(ev(seq, AccessKind::Read, i, 100));
            seq += 1;
        }
        assert_converges(events);
    }

    #[test]
    fn converges_on_queue_churn_with_sort_and_search() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut len = 0u32;
        for round in 0..40 {
            events.push(ev(seq, AccessKind::Insert, len, len + 1));
            len += 1;
            seq += 1;
            if round % 3 == 0 && len > 1 {
                len -= 1;
                events.push(ev(seq, AccessKind::Delete, 0, len));
                seq += 1;
            }
            if round % 7 == 0 {
                events.push(AccessEvent::whole(seq, AccessKind::Sort, len));
                seq += 1;
                events.push(AccessEvent {
                    seq: seq + 1,
                    kind: AccessKind::Search,
                    target: Target::Range { start: 0, end: len },
                    len,
                    thread: ThreadTag::MAIN,
                });
                seq += 2;
            }
        }
        assert_converges(events);
    }

    #[test]
    fn converges_on_multithreaded_interleaving() {
        let mut events = Vec::new();
        for i in 0..60u32 {
            let mut a = ev(u64::from(3 * i), AccessKind::Read, i, 60);
            a.thread = ThreadTag(1);
            events.push(a);
            let mut b = ev(u64::from(3 * i + 1), AccessKind::Read, 59 - i, 60);
            b.thread = ThreadTag(2);
            events.push(b);
            let mut c = ev(u64::from(3 * i + 2), AccessKind::Write, i, 60);
            c.thread = ThreadTag(3);
            events.push(c);
        }
        assert_converges(events);
    }

    #[test]
    fn converges_on_empty_and_tiny_profiles() {
        assert_converges(vec![]);
        assert_converges(vec![ev(0, AccessKind::Read, 5, 10)]);
        assert_converges(vec![
            ev(0, AccessKind::Write, 3, 10),
            ev(1, AccessKind::Write, 4, 10),
        ]);
    }

    #[test]
    fn converges_on_trailing_writes_and_clears() {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..20u32 {
            events.push(ev(seq, AccessKind::Insert, i, i + 1));
            seq += 1;
        }
        events.push(AccessEvent::whole(seq, AccessKind::Clear, 20));
        seq += 1;
        for i in 0..6u32 {
            events.push(ev(seq, AccessKind::Write, i, 20));
            seq += 1;
        }
        events.push(AccessEvent::whole(seq, AccessKind::Clear, 20));
        assert_converges(events);
    }

    #[test]
    fn mid_stream_snapshot_equals_batch_prefix_analysis() {
        // Snapshot after k events == batch analysis of the first k
        // events, for every k — the virtual flush makes prefixes exact too.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for i in 0..30u32 {
            events.push(ev(seq, AccessKind::Insert, i, i + 1));
            seq += 1;
            events.push(ev(seq, AccessKind::Read, i / 2, i + 1));
            seq += 1;
        }
        let miner_cfg = MinerConfig::default();
        let reg_cfg = RegularityConfig::default();
        let mut inc = IncrementalAnalyzer::new(&miner_cfg);
        for k in 0..events.len() {
            inc.fold(&events[k]);
            let (streamed, _) = inc.snapshot(&reg_cfg);
            let expected = reference(&events[..=k], &miner_cfg);
            assert_eq!(streamed.patterns, expected.patterns, "prefix len {}", k + 1);
        }
    }

    #[test]
    fn out_of_order_is_counted() {
        let mut inc = IncrementalAnalyzer::new(&MinerConfig::default());
        inc.fold(&ev(10, AccessKind::Read, 0, 5));
        inc.fold(&ev(5, AccessKind::Read, 1, 5));
        assert_eq!(inc.out_of_order(), 1);
    }
}
