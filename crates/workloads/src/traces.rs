//! Trace-program generators: synthetic runtime profiles with the pattern
//! and use-case shapes of §III.
//!
//! The empirical study's long tail of programs (Tables II and III) cannot be
//! re-executed here, but their *mined artifacts* — runtime profiles — can be
//! generated directly with the exact choreography the paper describes. Each
//! builder method appends one access phase with an explicit per-event cost,
//! and each event's `seq` — its one timestamp, a logical tick — is the
//! running cost before it. Runtime-share thresholds (e.g. Long-Insert's
//! ">30 % of runtime") are therefore exercised through costs, with inserts
//! dearer than reads, rather than through event counts.

use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    Target, ThreadTag,
};
use dsspy_usecases::UseCaseKind;

/// Default per-event cost of a mutation, in ticks.
pub const COST_MUTATE: u64 = 120;
/// Default per-event cost of a read, in ticks.
pub const COST_READ: u64 = 25;

/// Builds the event stream of one synthetic instance.
#[derive(Debug)]
pub struct TraceBuilder {
    seq: u64,
    len: u32,
    events: Vec<AccessEvent>,
}

impl TraceBuilder {
    /// Start an empty trace.
    pub fn new() -> TraceBuilder {
        TraceBuilder {
            seq: 0,
            len: 0,
            events: Vec::new(),
        }
    }

    /// Current structure length.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the trace holds no events yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, kind: AccessKind, target: Target, cost: u64) {
        self.events.push(AccessEvent {
            seq: self.seq,
            kind,
            target,
            len: self.len,
            thread: ThreadTag::MAIN,
        });
        self.seq += cost.max(1);
    }

    /// Append `n` elements at the back (Insert-Back phase).
    pub fn append_phase(&mut self, n: u32, cost: u64) -> &mut Self {
        for _ in 0..n {
            self.len += 1;
            self.push(AccessKind::Insert, Target::Index(self.len - 1), cost);
        }
        self
    }

    /// One full forward scan (Read-Forward over the whole structure).
    pub fn scan_forward(&mut self, cost: u64) -> &mut Self {
        for i in 0..self.len {
            self.push(AccessKind::Read, Target::Index(i), cost);
        }
        self
    }

    /// `n` single reads at pseudo-random (stride-scattered) positions —
    /// deliberately pattern-free noise.
    pub fn random_reads(&mut self, n: u32, cost: u64) -> &mut Self {
        if self.len == 0 {
            return self;
        }
        let mut idx = 7u32 % self.len;
        let mut last = u32::MAX;
        for _ in 0..n {
            // A coprime-ish stride that avoids ±1 steps (which would form
            // accidental adjacent runs).
            idx = (idx + self.len / 2 + 3) % self.len;
            if last != u32::MAX && (idx == last + 1 || idx + 1 == last) {
                idx = (idx + 3) % self.len;
            }
            self.push(AccessKind::Read, Target::Index(idx), cost);
            last = idx;
        }
        self
    }

    /// `n` explicit search operations, each scanning about half the
    /// structure.
    pub fn searches(&mut self, n: u32, cost: u64) -> &mut Self {
        for k in 0..n {
            let end = if self.len == 0 {
                0
            } else {
                self.len / 2 + k % 2
            };
            self.push(AccessKind::Search, Target::Range { start: 0, end }, cost);
        }
        self
    }

    /// Remove all elements (Clear).
    pub fn clear(&mut self, cost: u64) -> &mut Self {
        self.push(AccessKind::Clear, Target::Whole, cost);
        self.len = 0;
        self
    }

    /// Sort the structure in place.
    pub fn sort(&mut self, cost: u64) -> &mut Self {
        self.push(AccessKind::Sort, Target::Whole, cost);
        self
    }

    /// FIFO churn: enqueue at the back, dequeue at the front, `rounds`
    /// times, holding the length near `depth` (Implement-Queue shape).
    pub fn queue_churn(&mut self, rounds: u32, depth: u32, cost: u64) -> &mut Self {
        for _ in 0..rounds {
            self.len += 1;
            self.push(AccessKind::Insert, Target::Index(self.len - 1), cost);
            if self.len > depth {
                self.len -= 1;
                self.push(AccessKind::Delete, Target::Index(0), cost);
            }
        }
        self
    }

    /// LIFO churn: push and pop on the back (Stack-Implementation shape).
    pub fn stack_churn(&mut self, rounds: u32, cost: u64) -> &mut Self {
        for r in 0..rounds {
            self.len += 1;
            self.push(AccessKind::Insert, Target::Index(self.len - 1), cost);
            if r % 3 != 0 || self.len > 1 {
                self.len -= 1;
                self.push(AccessKind::Delete, Target::Index(self.len), cost);
            }
        }
        self
    }

    /// Array churn with resizes (Insert/Delete-Front shape): alternating
    /// insert/delete, each paying a resize.
    pub fn array_churn(&mut self, rounds: u32, cost: u64) -> &mut Self {
        for _ in 0..rounds {
            self.len += 1;
            self.push(AccessKind::Resize, Target::Whole, cost);
            self.push(AccessKind::Insert, Target::Index(0), cost);
            self.len -= 1;
            self.push(AccessKind::Resize, Target::Whole, cost);
            self.push(AccessKind::Delete, Target::Index(0), cost);
        }
        self
    }

    /// Trailing cleanup writes that are never read (Write-Without-Read).
    pub fn cleanup_writes(&mut self, cost: u64) -> &mut Self {
        for i in 0..self.len {
            self.push(AccessKind::Write, Target::Index(i), cost);
        }
        self
    }

    /// Finish into a profile for the given instance identity.
    pub fn build(self, instance: InstanceInfo) -> RuntimeProfile {
        RuntimeProfile::new(instance, self.events)
    }
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

/// Instance identity helper for synthetic corpus programs.
pub fn synth_instance(program: &str, index: u64, kind: DsKind) -> InstanceInfo {
    InstanceInfo::new(
        InstanceId(index),
        AllocationSite::new(
            format!("{program}.Core"),
            format!("Method{index}"),
            10 + index as u32 * 7,
        ),
        kind,
        "System.Object",
    )
}

/// Build a profile that reliably triggers exactly the given parallel use
/// case under default thresholds (plus nothing else), for corpus
/// calibration. `extra_flr` stacks a Frequent-Long-Read on top — the dual
/// LI+FLR shape of the paper's gpdotnet population list.
pub fn use_case_profile(
    program: &str,
    index: u64,
    kind: UseCaseKind,
    extra_flr: bool,
) -> RuntimeProfile {
    let mut b = TraceBuilder::new();
    match kind {
        UseCaseKind::LongInsert => {
            if extra_flr {
                // The dual shape needs the insert phase to keep >30 % of
                // runtime despite twelve full scans: inserts cost more
                // (they reallocate), which is also physically accurate.
                b.append_phase(150, COST_MUTATE * 2);
                for _ in 0..12 {
                    b.scan_forward(COST_READ);
                    b.random_reads(1, COST_READ);
                }
            } else {
                b.append_phase(150, COST_MUTATE);
                // Below-threshold read traffic to keep the profile "real".
                b.random_reads(40, COST_READ);
            }
        }
        UseCaseKind::ImplementQueue => {
            b.queue_churn(200, 8, COST_MUTATE);
        }
        UseCaseKind::SortAfterInsert => {
            b.append_phase(150, COST_MUTATE);
            b.sort(COST_MUTATE * 10);
            b.scan_forward(COST_READ);
        }
        UseCaseKind::FrequentSearch => {
            b.append_phase(60, COST_MUTATE);
            // Enough forward scans for the ≥2 % read-pattern share...
            for _ in 0..3 {
                b.scan_forward(COST_READ);
                b.random_reads(1, COST_READ);
            }
            // ... and the >1000 explicit searches.
            b.searches(1200, COST_READ);
        }
        UseCaseKind::FrequentLongRead => {
            b.append_phase(40, COST_READ); // cheap fill, below LI share
            for _ in 0..12 {
                b.scan_forward(COST_READ * 4);
                b.random_reads(1, COST_READ);
            }
        }
        UseCaseKind::InsertDeleteFront => {
            b.array_churn(30, COST_MUTATE);
        }
        UseCaseKind::StackImplementation => {
            b.stack_churn(120, COST_MUTATE);
        }
        UseCaseKind::WriteWithoutRead => {
            b.append_phase(40, COST_READ);
            b.scan_forward(COST_READ);
            b.cleanup_writes(COST_MUTATE);
        }
    }
    let ds_kind = match kind {
        UseCaseKind::InsertDeleteFront => DsKind::Array,
        _ => DsKind::List,
    };
    b.build(synth_instance(program, index, ds_kind))
}

/// Build a profile with recurring regularity but no use case (the Table II
/// rows where regularities outnumber parallel use cases).
pub fn regular_only_profile(program: &str, index: u64) -> RuntimeProfile {
    let mut b = TraceBuilder::new();
    // Two modest forward scans over a small list: regular (repeated
    // Read-Forward) but below every use-case threshold.
    b.append_phase(30, COST_MUTATE);
    b.random_reads(200, COST_READ); // drown the insert share below 30 %
    for _ in 0..2 {
        b.scan_forward(COST_READ);
        b.random_reads(1, COST_READ);
    }
    b.build(synth_instance(program, index, DsKind::List))
}

/// Build a pattern-free noise profile (irregular; never flagged).
pub fn irregular_profile(program: &str, index: u64) -> RuntimeProfile {
    let mut b = TraceBuilder::new();
    b.append_phase(2, COST_MUTATE);
    b.random_reads(60, COST_READ);
    b.build(synth_instance(program, index, DsKind::List))
}

/// The paper's Fig. 3 shape: repeated fill-scan-clear cycles where inserts
/// and reads interleave.
pub fn figure3_profile(cycles: u32, size: u32) -> RuntimeProfile {
    let mut b = TraceBuilder::new();
    for _ in 0..cycles {
        b.append_phase(size, COST_MUTATE);
        b.scan_forward(COST_READ);
        b.clear(COST_MUTATE);
    }
    b.build(synth_instance("Figure3", 0, DsKind::List))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_patterns::{analyze, MinerConfig};
    use dsspy_usecases::{classify, Thresholds};

    fn detected(profile: &RuntimeProfile) -> Vec<UseCaseKind> {
        let analysis = analyze(profile, &MinerConfig::default());
        classify(&profile.instance, &analysis, &Thresholds::default())
            .into_iter()
            .map(|u| u.kind)
            .collect()
    }

    #[test]
    fn each_parallel_use_case_profile_triggers_exactly_itself() {
        for kind in UseCaseKind::PARALLEL {
            let p = use_case_profile("T", 0, kind, false);
            let got = detected(&p);
            assert_eq!(got, vec![kind], "builder for {kind} produced {got:?}");
        }
    }

    #[test]
    fn sequential_use_case_profiles_trigger_themselves() {
        for kind in [
            UseCaseKind::InsertDeleteFront,
            UseCaseKind::StackImplementation,
            UseCaseKind::WriteWithoutRead,
        ] {
            let p = use_case_profile("T", 0, kind, false);
            let got = detected(&p);
            assert!(got.contains(&kind), "builder for {kind} produced {got:?}");
        }
    }

    #[test]
    fn dual_li_flr_profile_triggers_both() {
        let p = use_case_profile("T", 0, UseCaseKind::LongInsert, true);
        let got = detected(&p);
        assert!(got.contains(&UseCaseKind::LongInsert), "{got:?}");
        assert!(got.contains(&UseCaseKind::FrequentLongRead), "{got:?}");
    }

    #[test]
    fn regular_only_profile_is_regular_but_unflagged() {
        let p = regular_only_profile("T", 0);
        let analysis = analyze(&p, &MinerConfig::default());
        let verdict =
            dsspy_patterns::regularity(&analysis, &dsspy_patterns::RegularityConfig::default());
        assert!(verdict.is_regular(), "{verdict:?}");
        assert!(detected(&p).is_empty(), "{:?}", detected(&p));
    }

    #[test]
    fn irregular_profile_is_irregular_and_unflagged() {
        let p = irregular_profile("T", 0);
        let analysis = analyze(&p, &MinerConfig::default());
        let verdict =
            dsspy_patterns::regularity(&analysis, &dsspy_patterns::RegularityConfig::default());
        assert!(!verdict.is_regular());
        assert!(detected(&p).is_empty());
    }

    #[test]
    fn figure3_shape_has_repeated_insert_and_read_phases() {
        let p = figure3_profile(5, 50);
        let analysis = analyze(&p, &MinerConfig::default());
        let inserts = analysis
            .patterns
            .iter()
            .filter(|x| x.kind == dsspy_patterns::PatternKind::InsertBack)
            .count();
        let reads = analysis
            .patterns
            .iter()
            .filter(|x| x.kind == dsspy_patterns::PatternKind::ReadForward)
            .count();
        assert_eq!(inserts, 5);
        assert_eq!(reads, 5);
    }

    #[test]
    fn builder_length_tracking() {
        let mut b = TraceBuilder::new();
        b.append_phase(10, 1);
        assert_eq!(b.len(), 10);
        b.clear(1);
        assert_eq!(b.len(), 0);
        b.append_phase(3, 1);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }
}
