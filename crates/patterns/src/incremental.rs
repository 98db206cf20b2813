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
//! Per event the fold does no hashing. [`IncrementalAnalyzer`] keeps one
//! slot per thread (its [`ThreadMiner`] and event count) and remembers the
//! slot in use, so an event of the same thread as the last one costs a tag
//! comparison; only a thread switch looks its slot up in a map.
//! [`MetricsFold`] bumps one per-kind histogram and steps the few state
//! machines that depend on event order or position; every per-kind count
//! `Metrics` reports is derived from the histogram at snapshot time.
//!
//! # The merge law
//!
//! Every fold here also has a `merge`: the fold of `a` merged with the fold
//! of `b` equals the fold of `a ++ b`, at any split point, so a long profile
//! can be cut into chunks, each chunk folded on its own core, and the chunk
//! folds merged left to right. Almost all of the state adds, takes a
//! maximum or keeps the left or right end. Four places depend on the state
//! carried in from the events before a chunk:
//!
//! - the open run of each (thread, track), with its direction or end flags;
//! - `last_mut_was_insert` (the insert/delete alternation count);
//! - `trailing_unread_writes`;
//! - the previous heap-hop index of the advisory fold.
//!
//! The last three are settled from one boundary fact each (the chunk's
//! first mutation, whether it restarted the trailing writes, its first
//! traversal index). The runs are settled per track: each [`ThreadMiner`]
//! records how its first run began and ended (its *head*) and the first
//! event after which the track's state no longer depends on what came
//! before (its *sync* point). A carried-in run that the chunk's first event
//! breaks, or that runs on through the whole head, is stitched in O(1).
//! Otherwise merge replays that track's events of the right chunk, up to
//! its sync point, on the carried-in state; the caller supplies them (from
//! the profile slice, or by decoding the chunk again). Streams that keep a
//! track unsynced for a whole chunk (a read track alternating 4, 5, 4, 5)
//! replay the chunk's events of that track once more, so chunk folds
//! merged left to right never do more than twice the miner work of a
//! straight fold.
//!
//! The state that grows with the profile is the finalized-pattern list and
//! the sequence numbers of `Sort` events (needed for the Sort-After-Insert
//! metric; sorts are rare). Memory is therefore O(patterns), with no cap.
//! Raw events are never retained.
//!
//! [`RuntimeProfile`]: dsspy_events::RuntimeProfile

use std::borrow::Cow;
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

/// The track whose runs a pattern kind comes from.
fn track_of_pattern(kind: PatternKind) -> usize {
    if kind.is_read() {
        0
    } else if kind.is_write() {
        1
    } else if kind.is_insert() {
        2
    } else {
        3
    }
}

/// Whether positional index `i` is the back of the structure. `len` is the
/// length *after* the operation, so an append (or any non-delete access to
/// the last element) has `i == len - 1` and a back-removal has `i == len`.
fn at_back(kind: AccessKind, i: u32, len: u32) -> bool {
    match kind {
        AccessKind::Delete => i == len,
        _ => len > 0 && i == len - 1,
    }
}

/// Direction state of a read/write run.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Dir {
    Unknown,
    Forward,
    Backward,
}

/// The direction of the move from index `prev` to `idx`: `Unknown` when the
/// two are not adjacent.
fn step(prev: u32, idx: u32) -> Dir {
    if prev.checked_add(1) == Some(idx) {
        Dir::Forward
    } else if prev.checked_sub(1) == Some(idx) {
        Dir::Backward
    } else {
        Dir::Unknown
    }
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

    /// This run continued by the events of `next`, with the direction and
    /// end flags the joined run ends up with.
    fn joined(&self, next: &TrackAcc, dir: Dir, (front_ok, back_ok): (bool, bool)) -> TrackAcc {
        TrackAcc {
            len: self.len + next.len,
            first_seq: self.first_seq,
            last_seq: next.last_seq,
            lo: self.lo.min(next.lo),
            hi: self.hi.max(next.hi),
            max_struct_len: self.max_struct_len.max(next.max_struct_len),
            last_index: next.last_index,
            dir,
            front_ok,
            back_ok,
        }
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

/// The first event of a track's first run: its position, index and
/// back-end flag.
#[derive(Clone, Copy, Debug)]
struct First {
    pos: u64,
    index: u32,
    back: bool,
}

/// How an event that ends a run sits: its end flags (both false for an
/// index-less or middle event) and whether it lands one past the run's
/// last index.
#[derive(Clone, Copy, Debug)]
struct Close {
    front: bool,
    back: bool,
    contiguous: bool,
}

/// Either end of the structure: never, so every run breaks here.
const CLOSE_ALWAYS: Close = Close {
    front: false,
    back: false,
    contiguous: false,
};

/// How a track's first run in this fold began and ended: what
/// [`IncrementalAnalyzer::merge`] needs to continue a run carried in from
/// the events before the fold.
#[derive(Clone, Copy, Debug)]
enum Head {
    /// No event of this track yet.
    Untouched,
    /// The first run is still open: it is the track's accumulator.
    Open { first: First },
    /// The first run ended at the event at position `at`. `run` is the run
    /// as this fold built it, empty when the first event itself broke the
    /// track (then `first` only holds its position).
    Closed {
        first: First,
        run: TrackAcc,
        at: u64,
        close: Close,
    },
}

impl Head {
    fn shifted(self, offset: u64) -> Head {
        match self {
            Head::Untouched => Head::Untouched,
            Head::Open { first } => Head::Open {
                first: First {
                    pos: first.pos + offset,
                    ..first
                },
            },
            Head::Closed {
                first,
                run,
                at,
                close,
            } => Head::Closed {
                first: First {
                    pos: first.pos + offset,
                    ..first
                },
                run,
                at: at + offset,
                close,
            },
        }
    }
}

/// How a run carried into a track meets that track's head run.
enum Meet {
    /// The head's first event breaks the carried run.
    Breaks,
    /// The carried run runs on through the whole head run, ending with
    /// this direction and these end flags.
    RunsThrough(Dir, (bool, bool)),
    /// Neither: the carried run changes how the head run is cut.
    Diverges,
}

/// What merging one track of a right-hand miner left to do.
enum Stitch {
    /// The right fold's emissions on this track all stand.
    Kept,
    /// The right fold's emissions on this track up to this position (one
    /// at most) are void; the stitch emitted their replacement.
    VoidUpTo(u64),
    /// Replay the right fold's events of this track from position `from`
    /// on the carried-in state, through `until` (the track's sync point) or
    /// to the end. The right fold's emissions on the track up to there are
    /// void.
    Replay { from: u64, until: Option<u64> },
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
    // Per track: how its first run began and ended, and the position of the
    // first event after which its state no longer depends on the events
    // before this miner's first one. Only merge reads them.
    heads: [Head; 4],
    syncs: [Option<u64>; 4],
}

impl ThreadMiner {
    /// A fresh miner for one thread's event stream.
    pub fn new(thread: ThreadTag) -> ThreadMiner {
        ThreadMiner {
            thread,
            accs: [TrackAcc::new(); 4],
            heads: [Head::Untouched; 4],
            syncs: [None; 4],
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

    /// The event at `pos` breaks `track`'s run. `certain` says that the
    /// track's state after the event is the same whatever run was open
    /// before it, so the event is a sync point.
    fn close(
        &mut self,
        track: usize,
        pos: u64,
        close: Close,
        certain: bool,
        min_len: usize,
        sink: &mut impl FnMut(PatternInstance),
    ) {
        match self.heads[track] {
            Head::Untouched => {
                self.heads[track] = Head::Closed {
                    first: First {
                        pos,
                        index: 0,
                        back: false,
                    },
                    run: TrackAcc::new(),
                    at: pos,
                    close,
                }
            }
            Head::Open { first } => {
                self.heads[track] = Head::Closed {
                    first,
                    run: self.accs[track],
                    at: pos,
                    close,
                }
            }
            Head::Closed { .. } => {}
        }
        if certain && self.syncs[track].is_none() {
            self.syncs[track] = Some(pos);
        }
        self.emit_track(track, min_len, sink);
    }

    /// Push the event at `pos` onto `track`'s run, opening the track's head
    /// if this is its first event.
    fn extend(&mut self, track: usize, e: &AccessEvent, pos: u64, idx: u32, back: bool) {
        if matches!(self.heads[track], Head::Untouched) {
            self.heads[track] = Head::Open {
                first: First {
                    pos,
                    index: idx,
                    back,
                },
            };
        }
        self.accs[track].push(e, idx);
    }

    /// Advance the machine by one event, emitting any run the event closes.
    /// `pos` is the event's position in the folded stream.
    ///
    /// Compound kinds (Search, Sort, Clear, ...) live outside the positional
    /// tracks and are transparent. Events must arrive in the thread's
    /// chronological order.
    pub fn push(
        &mut self,
        e: &AccessEvent,
        pos: u64,
        min_len: usize,
        sink: &mut impl FnMut(PatternInstance),
    ) {
        let Some(track) = track_of(e.kind) else {
            return; // compound events live outside the positional tracks
        };
        let Some(idx) = e.index() else {
            // Positional kind without an index (shouldn't happen from our
            // wrappers, but profiles may come from elsewhere): break the run.
            self.close(track, pos, CLOSE_ALWAYS, true, min_len, sink);
            return;
        };

        if track < 2 {
            // Read/Write tracks: adjacent monotone indices. `step` is the
            // direction of the move from the previous index, `Unknown` when
            // the two are not adjacent.
            let acc = &self.accs[track];
            match acc.last_index().map(|prev| step(prev, idx)) {
                None => {}
                // Runs are disjoint: the breaker starts a fresh run, it does
                // not chain with the old run's tail. The previous index is
                // this miner's own, so any earlier state breaks here too.
                Some(Dir::Unknown) => self.close(track, pos, CLOSE_ALWAYS, true, min_len, sink),
                Some(dir) if acc.dir == Dir::Unknown || acc.dir == dir => {
                    self.accs[track].dir = dir;
                }
                Some(_) => self.close(track, pos, CLOSE_ALWAYS, false, min_len, sink),
            }
            self.extend(track, e, pos, idx, false);
            return;
        }
        // Insert/Delete tracks: runs anchored at one end.
        let (front, back) = (idx == 0, at_back(e.kind, idx, e.len));
        let acc = &self.accs[track];
        let mut ends = (acc.front_ok && front, acc.back_ok && back);
        // A back-insert run must also be *contiguous*: each append lands one
        // past the previous one. A Clear between appends resets the index to
        // 0, which (by front/back flags alone) could still look
        // front-compatible; require monotone growth for back runs so refill
        // phases separate. Front inserts always land at 0.
        let adjacent = acc
            .last_index()
            .is_none_or(|prev| prev.checked_add(1) == Some(idx));
        let contiguous = track == 3 || !ends.1 || adjacent;
        if !(ends.0 || ends.1) || !contiguous {
            // A middle event empties the track, and a back-only insert that
            // skips past this miner's own last index starts a run of its
            // own, whatever run was open before.
            let certain = !front && (!back || !contiguous);
            let close = Close {
                front,
                back,
                contiguous: adjacent,
            };
            self.close(track, pos, close, certain, min_len, sink);
            ends = (front, back);
        }
        // Middle inserts and deletes never start a run.
        if ends.0 || ends.1 {
            self.extend(track, e, pos, idx, back);
            let acc = &mut self.accs[track];
            (acc.front_ok, acc.back_ok) = ends;
        }
    }

    /// End-of-stream: emit whatever runs are still open, in track order.
    pub fn flush(&mut self, min_len: usize, sink: &mut impl FnMut(PatternInstance)) {
        for track in 0..4 {
            self.emit_track(track, min_len, sink);
        }
    }

    /// How the run `carry` (non-empty) meets a head run `run` that starts
    /// with `first`, on `track`.
    fn meet(track: usize, carry: &TrackAcc, first: First, run: &TrackAcc) -> Meet {
        if run.len == 0 {
            // The head's first event broke the track on its own: an
            // index-less or middle event breaks every run.
            return Meet::Breaks;
        }
        if track < 2 {
            return match step(carry.last_index, first.index) {
                Dir::Unknown => Meet::Breaks,
                dir if carry.dir != Dir::Unknown && carry.dir != dir => Meet::Breaks,
                dir if run.len < 2 || run.dir == dir => Meet::RunsThrough(dir, (true, true)),
                _ => Meet::Diverges,
            };
        }
        let ends = (
            carry.front_ok && first.index == 0,
            carry.back_ok && first.back,
        );
        let adjacent = carry.last_index.checked_add(1) == Some(first.index);
        if !(ends.0 || ends.1) || (track == 2 && ends.1 && !adjacent) {
            return Meet::Breaks;
        }
        // End flags only narrow along a run, so the carried run survives
        // every event of the head iff it survives the head's final flags.
        let flags = (carry.front_ok && run.front_ok, carry.back_ok && run.back_ok);
        if flags.0 || flags.1 {
            Meet::RunsThrough(carry.dir, flags)
        } else {
            Meet::Diverges
        }
    }

    /// Whether the joined run `run` on `track` breaks at an event that
    /// sits as `close` says.
    fn breaks_at(track: usize, run: &TrackAcc, close: Close) -> bool {
        if track < 2 {
            // The joined run ends with the head's own last index and (for
            // a head of two or more events) its direction, so it breaks
            // wherever the head broke.
            return true;
        }
        let ends = (run.front_ok && close.front, run.back_ok && close.back);
        !(ends.0 || ends.1) || (track == 2 && ends.1 && !close.contiguous)
    }

    /// Continue `track` with the same track of `right`, the miner of this
    /// thread over the events right after this one's. Positions in `right`
    /// are shifted by `offset`; `emit` receives the runs the stitch closes,
    /// with their positions.
    fn merge_track(
        &mut self,
        track: usize,
        right: &ThreadMiner,
        offset: u64,
        min_len: usize,
        emit: &mut impl FnMut(u64, PatternInstance),
    ) -> Stitch {
        let (first, run, closed) = match right.heads[track] {
            // No event of this track on the right: the carried state stands.
            Head::Untouched => return Stitch::Kept,
            Head::Open { first } => (first, right.accs[track], None),
            Head::Closed {
                first,
                run,
                at,
                close,
            } => (first, run, Some((at + offset, close))),
        };
        let carry = self.accs[track];
        if carry.len == 0 {
            // Nothing carried in: the right fold started from the same
            // empty state.
            if matches!(self.heads[track], Head::Untouched) {
                self.heads[track] = right.heads[track].shifted(offset);
            }
            self.adopt(track, right, offset);
            return Stitch::Kept;
        }
        let first_pos = first.pos + offset;
        let replay = Stitch::Replay {
            from: first_pos,
            until: right.syncs[track].map(|s| s + offset),
        };
        match Self::meet(track, &carry, first, &run) {
            Meet::Breaks => {
                let close = if run.len == 0 {
                    CLOSE_ALWAYS
                } else {
                    Close {
                        front: first.index == 0,
                        back: first.back,
                        contiguous: carry.last_index.checked_add(1) == Some(first.index),
                    }
                };
                self.close(track, first_pos, close, false, min_len, &mut |p| {
                    emit(first_pos, p)
                });
                self.adopt(track, right, offset);
                Stitch::Kept
            }
            Meet::RunsThrough(dir, flags) => {
                self.accs[track] = carry.joined(&run, dir, flags);
                match closed {
                    None => Stitch::Kept,
                    Some((at, close)) if Self::breaks_at(track, &self.accs[track], close) => {
                        self.close(track, at, close, false, min_len, &mut |p| emit(at, p));
                        self.adopt(track, right, offset);
                        Stitch::VoidUpTo(at)
                    }
                    Some(_) => {
                        self.accs[track] = carry;
                        replay
                    }
                }
            }
            Meet::Diverges => replay,
        }
    }

    /// Take `right`'s state of `track`, which no longer depends on what
    /// came before it.
    fn adopt(&mut self, track: usize, right: &ThreadMiner, offset: u64) {
        self.accs[track] = right.accs[track];
        self.syncs[track] = self.syncs[track].or(right.syncs[track].map(|s| s + offset));
    }
}

/// Foldable aggregates over finalized [`PatternInstance`]s: everything the
/// metric and regularity passes need from the pattern list, maintained O(1)
/// per emission.
#[derive(Clone, Debug, Default)]
pub struct PatternAggregates {
    /// Instances per pattern kind, indexed by discriminant (which is the
    /// kind's [`PatternKind::ALL`] position).
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
        let slot = p.kind as usize;
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
///
/// Every per-kind count `Metrics` reports (totals, reads, writes, inserts,
/// searches, ...) is derived from the `by_kind` histogram at finish time;
/// per event the fold only bumps the histogram and steps the state
/// machines that depend on event order or position.
#[derive(Clone, Debug, Default)]
pub struct MetricsFold {
    by_kind: [usize; 11],
    max_struct_len: u32,
    first_seq: Option<u64>,
    last_seq: u64,
    positional: usize,
    front: usize,
    back: usize,
    insert_front: usize,
    insert_back: usize,
    delete_front: usize,
    delete_back: usize,
    insert_delete_alternations: usize,
    first_mut_was_insert: Option<bool>,
    last_mut_was_insert: Option<bool>,
    // Trailing-unread-writes state machine: Writes since the last event that
    // was neither a Write nor transparent teardown (Clear/Delete). Equal to
    // the batch pass's backward scan at any prefix. `writes_restarted`
    // records whether such an event was folded at all.
    trailing_unread_writes: usize,
    writes_restarted: bool,
    // Sequence numbers of Sort events, in arrival order. Needed because the
    // earliest insert-pattern end is only known at snapshot time. Sorts are
    // rare, so this is the one per-event-kind list we keep.
    sort_seqs: Vec<u64>,
}

impl MetricsFold {
    /// Fold one event (events must arrive in profile order).
    pub fn fold(&mut self, e: &AccessEvent) {
        if self.first_seq.is_none() {
            self.first_seq = Some(e.seq);
        }
        self.last_seq = e.seq;
        self.by_kind[e.kind as usize] += 1;
        self.max_struct_len = self.max_struct_len.max(e.len);
        match e.kind {
            AccessKind::Insert => self.mutation(true),
            AccessKind::Delete => self.mutation(false),
            AccessKind::Sort => self.sort_seqs.push(e.seq),
            _ => {}
        }
        if e.kind.is_positional() {
            if let Some(i) = e.index() {
                self.positional += 1;
                let at_front = i == 0;
                let at_back = at_back(e.kind, i, e.len);
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
            _ => {
                self.trailing_unread_writes = 0;
                self.writes_restarted = true;
            }
        }
    }

    /// Step the insert/delete alternation machine by one mutation.
    fn mutation(&mut self, insert: bool) {
        match self.last_mut_was_insert {
            Some(last) if last != insert => self.insert_delete_alternations += 1,
            Some(_) => {}
            None => self.first_mut_was_insert = Some(insert),
        }
        self.last_mut_was_insert = Some(insert);
    }

    /// Merge the fold of the events right after this fold's: afterwards
    /// `self` equals the fold of both runs of events in order.
    pub fn merge(&mut self, right: &MetricsFold) {
        if right.first_seq.is_none() {
            return;
        }
        if self.first_seq.is_none() {
            *self = right.clone();
            return;
        }
        for (count, more) in self.by_kind.iter_mut().zip(right.by_kind) {
            *count += more;
        }
        self.max_struct_len = self.max_struct_len.max(right.max_struct_len);
        self.last_seq = right.last_seq;
        self.positional += right.positional;
        self.front += right.front;
        self.back += right.back;
        self.insert_front += right.insert_front;
        self.insert_back += right.insert_back;
        self.delete_front += right.delete_front;
        self.delete_back += right.delete_back;
        self.insert_delete_alternations += right.insert_delete_alternations;
        if let (Some(last), Some(first)) = (self.last_mut_was_insert, right.first_mut_was_insert) {
            self.insert_delete_alternations += usize::from(last != first);
        }
        self.first_mut_was_insert = self.first_mut_was_insert.or(right.first_mut_was_insert);
        self.last_mut_was_insert = right.last_mut_was_insert.or(self.last_mut_was_insert);
        if right.writes_restarted {
            self.trailing_unread_writes = right.trailing_unread_writes;
        } else {
            self.trailing_unread_writes += right.trailing_unread_writes;
        }
        self.writes_restarted |= right.writes_restarted;
        self.sort_seqs.extend_from_slice(&right.sort_seqs);
    }

    /// Events folded so far.
    fn total_events(&self) -> usize {
        self.by_kind.iter().sum()
    }

    /// Events folded so far of one kind.
    fn count(&self, kind: AccessKind) -> usize {
        self.by_kind[kind as usize]
    }

    /// Combine the per-event aggregates with the pattern aggregates into
    /// the exact [`Metrics`] the batch pass computes.
    pub fn finish(&self, patterns: &PatternAggregates) -> Metrics {
        let total_events = self.total_events();
        let reads = AccessKind::ALL
            .iter()
            .filter(|k| k.class() == AccessClass::Read)
            .map(|&k| self.count(k))
            .sum();
        let mut m = Metrics {
            total_events,
            by_kind: self.by_kind,
            reads,
            writes: total_events - reads,
            max_struct_len: self.max_struct_len,
            duration_ticks: self
                .first_seq
                .map_or(0, |first| self.last_seq.saturating_sub(first)),
            insert_ops: self.count(AccessKind::Insert),
            delete_ops: self.count(AccessKind::Delete),
            resize_ops: self.count(AccessKind::Resize),
            sort_ops: self.count(AccessKind::Sort),
            search_ops: self.count(AccessKind::Search),
            insert_delete_alternations: self.insert_delete_alternations,
            trailing_unread_writes: self.trailing_unread_writes,
            ..Metrics::default()
        };

        if total_events > 0 {
            let read_or_search = self.count(AccessKind::Read) + self.count(AccessKind::Search);
            m.read_or_search_share = read_or_search as f64 / total_events as f64;
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
/// One thread's share of an [`IncrementalAnalyzer`]: its run state machine
/// and how many events it has folded.
#[derive(Clone, Debug)]
struct ThreadSlot {
    miner: ThreadMiner,
    events: usize,
}

/// A finalized pattern and the position of the event that closed it.
#[derive(Clone, Copy, Debug)]
struct Emitted {
    pos: u64,
    pattern: PatternInstance,
}

/// One track of one thread that a merge replays: the left slot to replay
/// on, the right slot it came from, the track and the positions to replay.
struct Replay {
    slot: usize,
    right_slot: usize,
    track: usize,
    from: u64,
    until: Option<u64>,
}

/// One instance's complete incremental analysis state: one slot per
/// thread (its miner and event count), finalized patterns and the metric
/// fold.
///
/// Fold events with [`IncrementalAnalyzer::fold`]; take an exact
/// [`ProfileAnalysis`] + regularity verdict at any point with
/// [`IncrementalAnalyzer::snapshot`] — open runs are *virtually* flushed
/// (on clones of the compact accumulators), as at the end of a profile, so
/// a snapshot after any prefix equals the analysis of exactly that prefix.
/// Two analyzers of consecutive event runs combine with
/// [`IncrementalAnalyzer::merge`].
///
/// Threads change rarely inside a profile, so the slot in use is cached:
/// an event of the current thread costs one tag comparison, and only a
/// thread switch looks the slot up in `slot_of`.
#[derive(Clone, Debug)]
pub struct IncrementalAnalyzer {
    min_len: usize,
    /// Slots in order of each thread's first event.
    slots: Vec<ThreadSlot>,
    slot_of: HashMap<ThreadTag, usize>,
    /// Index into `slots` of the last event's thread (0 while empty).
    current: usize,
    switches: usize,
    /// Events folded so far: the next event's position.
    events: u64,
    /// Finalized patterns in the order their closing events arrived.
    finalized: Vec<Emitted>,
    metrics: MetricsFold,
    out_of_order: u64,
}

impl IncrementalAnalyzer {
    /// Fresh state with the given miner configuration.
    pub fn new(config: &MinerConfig) -> IncrementalAnalyzer {
        IncrementalAnalyzer {
            min_len: config.min_run_len.max(2),
            slots: Vec::new(),
            slot_of: HashMap::new(),
            current: 0,
            switches: 0,
            events: 0,
            finalized: Vec::new(),
            metrics: MetricsFold::default(),
            out_of_order: 0,
        }
    }

    /// Fold one event. Events must arrive in profile (sequence) order;
    /// inversions are counted, not repaired.
    pub fn fold(&mut self, e: &AccessEvent) {
        if self.events > 0 && e.seq < self.metrics.last_seq {
            self.out_of_order += 1;
        }
        self.metrics.fold(e);
        if self
            .slots
            .get(self.current)
            .is_none_or(|slot| slot.miner.thread != e.thread)
        {
            self.switch_to(e.thread);
        }
        let pos = self.events;
        self.events += 1;
        let slot = &mut self.slots[self.current];
        slot.events += 1;
        let finalized = &mut self.finalized;
        slot.miner.push(e, pos, self.min_len, &mut |pattern| {
            finalized.push(Emitted { pos, pattern });
        });
    }

    /// Make `thread`'s slot current, creating it on first sight; every
    /// change of thread after the first event counts as a switch.
    fn switch_to(&mut self, thread: ThreadTag) {
        if !self.slots.is_empty() {
            self.switches += 1;
        }
        self.current = self.slot_index(thread);
    }

    /// The index of `thread`'s slot, created empty on first sight.
    fn slot_index(&mut self, thread: ThreadTag) -> usize {
        let fresh = self.slots.len();
        let index = *self.slot_of.entry(thread).or_insert(fresh);
        if index == fresh {
            self.slots.push(ThreadSlot {
                miner: ThreadMiner::new(thread),
                events: 0,
            });
        }
        index
    }

    /// Events folded so far.
    pub fn event_count(&self) -> usize {
        self.events as usize
    }

    /// Sequence-order inversions observed (0 for any collector-fed stream).
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Merge `right`, the analyzer of the events that directly follow this
    /// one's, into `self`. Afterwards `self` is the analyzer of both runs of
    /// events in order — exactly what folding them all here would give.
    ///
    /// `right_events` yields the events `right` folded. It is called only
    /// when a run carried into `right` cuts one of its tracks differently
    /// from the way `right` cut it on its own; the merge then replays that
    /// track's events up to its sync point. Returns the number of events
    /// replayed (0 in the common case).
    ///
    /// Both analyzers must use the same [`MinerConfig`].
    pub fn merge<'e>(
        &mut self,
        right: IncrementalAnalyzer,
        right_events: impl FnOnce() -> Cow<'e, [AccessEvent]>,
    ) -> usize {
        assert_eq!(
            self.min_len, right.min_len,
            "merged analyzers differ in config"
        );
        if right.events == 0 {
            return 0;
        }
        if self.events == 0 {
            *self = right;
            return 0;
        }
        let offset = self.events;
        if right.metrics.first_seq < Some(self.metrics.last_seq) {
            self.out_of_order += 1;
        }
        self.out_of_order += right.out_of_order;
        // A right analyzer's slots are in order of first sight, so its
        // first slot holds its first event's thread.
        let boundary_switch = self.slots[self.current].miner.thread != right.slots[0].miner.thread;
        self.switches += right.switches + usize::from(boundary_switch);
        self.metrics.merge(&right.metrics);
        self.events += right.events;

        let min_len = self.min_len;
        let mut emitted = Vec::new();
        let mut void: HashMap<(ThreadTag, usize), u64> = HashMap::new();
        let mut replays = Vec::new();
        for (right_slot, rs) in right.slots.iter().enumerate() {
            let slot = self.slot_index(rs.miner.thread);
            let left = &mut self.slots[slot];
            left.events += rs.events;
            for track in 0..4 {
                let stitch = left.miner.merge_track(
                    track,
                    &rs.miner,
                    offset,
                    min_len,
                    &mut |pos, pattern| emitted.push(Emitted { pos, pattern }),
                );
                match stitch {
                    Stitch::Kept => {}
                    Stitch::VoidUpTo(pos) => {
                        void.insert((rs.miner.thread, track), pos);
                    }
                    Stitch::Replay { from, until } => {
                        void.insert((rs.miner.thread, track), until.unwrap_or(u64::MAX));
                        replays.push(Replay {
                            slot,
                            right_slot,
                            track,
                            from,
                            until,
                        });
                    }
                }
            }
        }
        let replayed = if replays.is_empty() {
            0
        } else {
            self.replay(&replays, &right_events(), offset, &mut emitted)
        };
        for r in &replays {
            if r.until.is_some() {
                let right_miner = &right.slots[r.right_slot].miner;
                self.slots[r.slot].miner.adopt(r.track, right_miner, offset);
            }
        }
        self.current = self.slot_of[&right.slots[right.current].miner.thread];

        let start = self.finalized.len();
        self.finalized.extend(
            right
                .finalized
                .into_iter()
                .map(|e| Emitted {
                    pos: e.pos + offset,
                    ..e
                })
                .filter(|e| {
                    let key = (e.pattern.thread, track_of_pattern(e.pattern.kind));
                    void.get(&key).is_none_or(|&upto| e.pos > upto)
                }),
        );
        self.finalized.extend(emitted);
        self.finalized[start..].sort_by_key(|e| e.pos);
        replayed
    }

    /// Replay the right fold's `events` (positions from `offset`) of each
    /// planned track on this analyzer's miners; returns how many were
    /// pushed.
    fn replay(
        &mut self,
        replays: &[Replay],
        events: &[AccessEvent],
        offset: u64,
        emitted: &mut Vec<Emitted>,
    ) -> usize {
        // Per thread: its slot and each track's inclusive position window.
        type Windows = (usize, [Option<(u64, u64)>; 4]);
        let mut windows: HashMap<ThreadTag, Windows> = HashMap::new();
        for r in replays {
            let thread = self.slots[r.slot].miner.thread;
            windows.entry(thread).or_insert((r.slot, [None; 4])).1[r.track] =
                Some((r.from, r.until.unwrap_or(u64::MAX)));
        }
        let lo = replays.iter().map(|r| r.from).min().unwrap_or(offset) - offset;
        let hi = replays
            .iter()
            .map(|r| r.until.map_or(events.len() as u64, |u| u - offset + 1))
            .max()
            .unwrap_or(0) as usize;
        let min_len = self.min_len;
        let mut replayed = 0;
        let mut cached: Option<(ThreadTag, Windows)> = None;
        for (e, pos) in events[lo as usize..hi].iter().zip(offset + lo..) {
            let Some(track) = track_of(e.kind) else {
                continue;
            };
            let (slot, window) = match cached {
                Some((thread, found)) if thread == e.thread => found,
                _ => {
                    let Some(&found) = windows.get(&e.thread) else {
                        continue;
                    };
                    cached = Some((e.thread, found));
                    found
                }
            };
            let Some((from, until)) = window[track] else {
                continue;
            };
            if pos < from || pos > until {
                continue;
            }
            self.slots[slot]
                .miner
                .push(e, pos, min_len, &mut |pattern| {
                    emitted.push(Emitted { pos, pattern })
                });
            replayed += 1;
        }
        replayed
    }

    /// Exact analysis of everything folded so far.
    ///
    /// Open runs are flushed on clones (the live accumulators keep
    /// extending), as at the end of a profile. Patterns are ordered by
    /// `first_seq`; with unique sequence numbers (always true for session
    /// captures) that order does not depend on how events were batched.
    pub fn snapshot(&self, regularity: &RegularityConfig) -> (ProfileAnalysis, RegularityVerdict) {
        let mut aggs = PatternAggregates::default();
        let mut patterns: Vec<PatternInstance> = self
            .finalized
            .iter()
            .map(|e| {
                aggs.add(&e.pattern);
                e.pattern
            })
            .collect();
        // Virtual end-of-stream flush, threads ascending.
        let mut slots: Vec<&ThreadSlot> = self.slots.iter().collect();
        slots.sort_unstable_by_key(|slot| slot.miner.thread);
        for slot in slots {
            slot.miner.clone().flush(self.min_len, &mut |p| {
                aggs.add(&p);
                patterns.push(p);
            });
        }
        patterns.sort_by_key(|p| p.first_seq);
        let verdict = aggs.regularity(regularity);
        let metrics = self.metrics.finish(&aggs);
        (
            ProfileAnalysis {
                patterns,
                metrics,
                threads: self.thread_profile(),
            },
            verdict,
        )
    }

    /// The [`ThreadProfile`] of everything folded so far.
    fn thread_profile(&self) -> ThreadProfile {
        let mut events_per_thread: Vec<(ThreadTag, usize)> = self
            .slots
            .iter()
            .map(|slot| (slot.miner.thread, slot.events))
            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regularity::regularity;
    use dsspy_events::Target;

    /// The reference the fold is checked against: untangle the
    /// events by thread, run each thread's slice through its own
    /// [`ThreadMiner`] and flush it, then order the patterns by start.
    /// Metrics come from their fold over the whole stream; thread facts
    /// from counting each thread's slice and each adjacent pair.
    fn reference(events: &[AccessEvent], config: &MinerConfig) -> ProfileAnalysis {
        let min_len = config.min_run_len.max(2);
        let mut threads: Vec<ThreadTag> = events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        let mut events_per_thread: Vec<(ThreadTag, usize)> = threads
            .iter()
            .map(|&t| (t, events.iter().filter(|e| e.thread == t).count()))
            .collect();
        events_per_thread.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let thread_profile = ThreadProfile {
            thread_count: threads.len(),
            switches: events
                .windows(2)
                .filter(|w| w[0].thread != w[1].thread)
                .count(),
            dominant_share: events_per_thread
                .first()
                .map_or(0.0, |(_, n)| *n as f64 / events.len() as f64),
            events_per_thread,
        };
        let mut patterns = Vec::new();
        for thread in threads {
            let mut miner = ThreadMiner::new(thread);
            let mut sink = |p: PatternInstance| patterns.push(p);
            for (pos, e) in (0u64..).zip(events).filter(|(_, e)| e.thread == thread) {
                miner.push(e, pos, min_len, &mut sink);
            }
            miner.flush(min_len, &mut sink);
        }
        patterns.sort_by_key(|p| p.first_seq);

        let mut metrics = MetricsFold::default();
        for e in events {
            metrics.fold(e);
        }
        let mut aggs = PatternAggregates::default();
        for p in &patterns {
            aggs.add(p);
        }
        ProfileAnalysis {
            metrics: metrics.finish(&aggs),
            threads: thread_profile,
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

    /// Reads at `indices` on the main thread, one per tick.
    fn reads_at(indices: &[u32]) -> Vec<AccessEvent> {
        indices
            .iter()
            .zip(0u64..)
            .map(|(&i, seq)| ev(seq, AccessKind::Read, i, u32::MAX))
            .collect()
    }

    #[test]
    fn index_at_u32_max_neither_panics_nor_chains_to_zero() {
        // u32::MAX + 1 must not wrap to 0: the read at the top index ends
        // its own one-event run, and 0..=7 is a run of its own.
        let mut indices = vec![u32::MAX];
        indices.extend(0..8);
        let mut inc = IncrementalAnalyzer::new(&MinerConfig::default());
        for e in reads_at(&indices) {
            inc.fold(&e);
        }
        let (a, _) = inc.snapshot(&RegularityConfig::default());
        assert_eq!(a.patterns.len(), 1, "{:?}", a.patterns);
        let p = &a.patterns[0];
        assert_eq!(
            (p.kind, p.lo, p.hi, p.len),
            (PatternKind::ReadForward, 0, 7, 8)
        );
        // A backward run down from the top index stays exact.
        assert_converges(reads_at(&[u32::MAX, u32::MAX - 1, u32::MAX - 2, 0]));
    }

    #[test]
    fn runs_across_2_pow_31_are_one_run() {
        let mid = 1u32 << 31;
        let mut inc = IncrementalAnalyzer::new(&MinerConfig::default());
        for e in reads_at(&[mid - 2, mid - 1, mid, mid + 1, mid + 2]) {
            inc.fold(&e);
        }
        let (a, _) = inc.snapshot(&RegularityConfig::default());
        assert_eq!(a.patterns.len(), 1, "{:?}", a.patterns);
        let p = &a.patterns[0];
        assert_eq!(
            (p.kind, p.lo, p.hi, p.len),
            (PatternKind::ReadForward, mid - 2, mid + 2, 5)
        );
    }

    #[test]
    fn merged_patterns_keep_the_straight_order_on_tied_starts() {
        // Every event at one tick: only the order the runs closed in
        // orders the patterns. Thread 1's run carried across the split
        // closes at the right side's first event, thread 2's run (its own
        // on the right) five events later.
        let read = |thread: u32, i: u32| AccessEvent {
            thread: ThreadTag(thread),
            ..ev(7, AccessKind::Read, i, 100)
        };
        let mut events: Vec<AccessEvent> = (0..4).map(|i| read(1, i)).collect();
        let split = events.len();
        events.push(read(1, 10));
        events.extend((0..4).map(|i| read(2, i)));
        events.push(read(2, 50));
        let config = MinerConfig::default();
        let fold = |events: &[AccessEvent]| {
            let mut inc = IncrementalAnalyzer::new(&config);
            for e in events {
                inc.fold(e);
            }
            inc
        };
        let mut merged = fold(&events[..split]);
        merged.merge(fold(&events[split..]), || Cow::Borrowed(&events[split..]));
        let reg = RegularityConfig::default();
        let (got, _) = merged.snapshot(&reg);
        let (want, _) = fold(&events).snapshot(&reg);
        assert_eq!(want.patterns[0].thread, ThreadTag(1));
        assert_eq!(got.patterns, want.patterns);
    }

    #[test]
    fn out_of_order_is_counted() {
        let mut inc = IncrementalAnalyzer::new(&MinerConfig::default());
        inc.fold(&ev(10, AccessKind::Read, 0, 5));
        inc.fold(&ev(5, AccessKind::Read, 1, 5));
        assert_eq!(inc.out_of_order(), 1);
    }
}
