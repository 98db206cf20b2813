//! Access events: the atoms of a runtime profile.
//!
//! Every interaction with an instrumented data structure produces exactly one
//! [`AccessEvent`]. Events are small (`Copy`, a few machine words) so that
//! recording them at runtime stays cheap and post-mortem analysis can keep
//! millions of them in memory.

use serde::{Deserialize, Serialize};

/// The access *type* of an event.
///
/// The paper distinguishes the **trivial** access types `Read` and `Write`
/// from **compound** access types that are derived from the interface method
/// invoked on the data structure (§IV): `Insert`, `Search`, `Delete`,
/// `Clear`, `Copy`, `Reverse`, `Sort` and `ForAll`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum AccessKind {
    /// An element was read via the indexer or an equivalent accessor.
    Read = 0,
    /// An element was overwritten in place via the indexer.
    Write = 1,
    /// A new element entered the structure (`Add`, `Insert`, `Push`, ...).
    Insert = 2,
    /// An element left the structure (`Remove`, `RemoveAt`, `Pop`, ...).
    Delete = 3,
    /// An explicit lookup (`Contains`, `IndexOf`, `Find`, `BinarySearch`).
    Search = 4,
    /// All elements were removed at once.
    Clear = 5,
    /// The contents were copied out wholesale (`CopyTo`, `ToArray`, `Clone`).
    Copy = 6,
    /// The element order was reversed in place.
    Reverse = 7,
    /// The structure was sorted in place.
    Sort = 8,
    /// A whole-structure traversal (`ForEach`, iterator consumption).
    ForAll = 9,
    /// The backing store was resized/reallocated (arrays only; §III, IDF).
    Resize = 10,
}

impl AccessKind {
    /// All kinds, in discriminant order. Useful for histograms.
    pub const ALL: [AccessKind; 11] = [
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::Insert,
        AccessKind::Delete,
        AccessKind::Search,
        AccessKind::Clear,
        AccessKind::Copy,
        AccessKind::Reverse,
        AccessKind::Sort,
        AccessKind::ForAll,
        AccessKind::Resize,
    ];

    /// Whether this access observes state (`Read`) or mutates it (`Write`),
    /// the paper's binary *Read/Write* attribute of an event.
    pub fn class(self) -> AccessClass {
        match self {
            AccessKind::Read | AccessKind::Search | AccessKind::Copy | AccessKind::ForAll => {
                AccessClass::Read
            }
            AccessKind::Write
            | AccessKind::Insert
            | AccessKind::Delete
            | AccessKind::Clear
            | AccessKind::Reverse
            | AccessKind::Sort
            | AccessKind::Resize => AccessClass::Write,
        }
    }

    /// Whether the kind is one of the paper's *compound* access types
    /// (everything except the trivial `Read` / `Write`).
    pub fn is_compound(self) -> bool {
        !matches!(self, AccessKind::Read | AccessKind::Write)
    }

    /// Whether the event conceptually touches a single element position
    /// (as opposed to the structure as a whole).
    pub fn is_positional(self) -> bool {
        matches!(
            self,
            AccessKind::Read | AccessKind::Write | AccessKind::Insert | AccessKind::Delete
        )
    }

    /// Short uppercase mnemonic used in reports and charts.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AccessKind::Read => "RD",
            AccessKind::Write => "WR",
            AccessKind::Insert => "INS",
            AccessKind::Delete => "DEL",
            AccessKind::Search => "SRCH",
            AccessKind::Clear => "CLR",
            AccessKind::Copy => "CPY",
            AccessKind::Reverse => "REV",
            AccessKind::Sort => "SORT",
            AccessKind::ForAll => "FOR",
            AccessKind::Resize => "RSZ",
        }
    }

    /// Decode from the wire discriminant. Inverse of `self as u8`.
    pub fn from_u8(v: u8) -> Option<AccessKind> {
        AccessKind::ALL.get(v as usize).copied()
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "Read",
            AccessKind::Write => "Write",
            AccessKind::Insert => "Insert",
            AccessKind::Delete => "Delete",
            AccessKind::Search => "Search",
            AccessKind::Clear => "Clear",
            AccessKind::Copy => "Copy",
            AccessKind::Reverse => "Reverse",
            AccessKind::Sort => "Sort",
            AccessKind::ForAll => "ForAll",
            AccessKind::Resize => "Resize",
        })
    }
}

/// The paper's binary *Read/Write* attribute: did the event read from or
/// write to the data structure?
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessClass {
    /// The event observed state without changing it.
    Read,
    /// The event mutated the structure (contents, order, or length).
    Write,
}

/// The *position* attribute of an event: what location of the data structure
/// was accessed?
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Target {
    /// A single element index.
    Index(u32),
    /// A contiguous index range `[start, end)` (e.g. a slice copy or a
    /// search that scanned a prefix before hitting its match).
    Range {
        /// First index touched.
        start: u32,
        /// One past the last index touched.
        end: u32,
    },
    /// The structure as a whole (`Clear`, `Sort`, `Reverse`, `ForAll`, ...).
    Whole,
    /// No meaningful position (e.g. a failed search on an empty structure).
    None,
}

impl Target {
    /// The representative single index of the target, if it has one.
    ///
    /// `Range` targets report their *start*; `Whole`/`None` report nothing.
    pub fn index(self) -> Option<u32> {
        match self {
            Target::Index(i) => Some(i),
            Target::Range { start, .. } => Some(start),
            Target::Whole | Target::None => None,
        }
    }

    /// Number of element slots the target spans, given the structure length
    /// at access time (`len`), used for coverage statistics.
    pub fn span(self, len: u32) -> u32 {
        match self {
            Target::Index(_) => 1,
            Target::Range { start, end } => end.saturating_sub(start),
            Target::Whole => len,
            Target::None => 0,
        }
    }
}

/// A compact identifier for the OS thread that raised an event.
///
/// DSspy supports single- and multithreaded code, so each event carries the
/// thread that produced it (§IV); pattern mining untangles per-thread
/// subsequences before looking for successive accesses.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ThreadTag(pub u32);

impl ThreadTag {
    /// The tag given to the first (usually main) thread of a session.
    pub const MAIN: ThreadTag = ThreadTag(0);
}

impl std::fmt::Display for ThreadTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One access to an instrumented data structure.
///
/// `seq` is the event's only timestamp: a logical tick that totally orders
/// events *within a session*. Live sessions draw it from the session-global
/// counter; synthetic traces advance it by a per-event cost. Use cases
/// defined over *runtime shares* (e.g. Long-Insert's ">30 % of runtime")
/// measure spans of ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessEvent {
    /// Logical timestamp: session-global, strictly increasing tick.
    pub seq: u64,
    /// The access type.
    pub kind: AccessKind,
    /// The accessed position within the structure.
    pub target: Target,
    /// Length of the data structure at the moment of access (the grey
    /// backdrop bars in the paper's Figs. 2 and 3).
    pub len: u32,
    /// Thread that raised the event.
    pub thread: ThreadTag,
}

impl AccessEvent {
    /// Convenience constructor for single-threaded, index-targeted events —
    /// the overwhelmingly common case in tests and trace builders.
    pub fn at(seq: u64, kind: AccessKind, index: u32, len: u32) -> AccessEvent {
        AccessEvent {
            seq,
            kind,
            target: Target::Index(index),
            len,
            thread: ThreadTag::MAIN,
        }
    }

    /// Convenience constructor for whole-structure events.
    pub fn whole(seq: u64, kind: AccessKind, len: u32) -> AccessEvent {
        AccessEvent {
            seq,
            kind,
            target: Target::Whole,
            len,
            thread: ThreadTag::MAIN,
        }
    }

    /// The binary read/write classification of the event.
    pub fn class(&self) -> AccessClass {
        self.kind.class()
    }

    /// Representative index, if the event is positional.
    pub fn index(&self) -> Option<u32> {
        self.target.index()
    }

    /// Fraction of the structure this event touched, in `[0, 1]`.
    ///
    /// Whole-structure events on an empty structure count as 0 coverage.
    pub fn coverage(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        f64::from(self.target.span(self.len)) / f64::from(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_class_partitions_all_kinds() {
        let mut reads = 0;
        let mut writes = 0;
        for k in AccessKind::ALL {
            match k.class() {
                AccessClass::Read => reads += 1,
                AccessClass::Write => writes += 1,
            }
        }
        assert_eq!(reads + writes, AccessKind::ALL.len());
        assert_eq!(reads, 4); // Read, Search, Copy, ForAll
        assert_eq!(writes, 7);
    }

    #[test]
    fn kind_roundtrips_through_u8() {
        for k in AccessKind::ALL {
            assert_eq!(AccessKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(AccessKind::from_u8(11), None);
        assert_eq!(AccessKind::from_u8(255), None);
    }

    #[test]
    fn trivial_vs_compound() {
        assert!(!AccessKind::Read.is_compound());
        assert!(!AccessKind::Write.is_compound());
        for k in AccessKind::ALL {
            if k != AccessKind::Read && k != AccessKind::Write {
                assert!(k.is_compound(), "{k} should be compound");
            }
        }
    }

    #[test]
    fn target_span_and_index() {
        assert_eq!(Target::Index(7).index(), Some(7));
        assert_eq!(Target::Index(7).span(100), 1);
        assert_eq!(Target::Range { start: 2, end: 9 }.index(), Some(2));
        assert_eq!(Target::Range { start: 2, end: 9 }.span(100), 7);
        assert_eq!(Target::Range { start: 9, end: 2 }.span(100), 0);
        assert_eq!(Target::Whole.span(42), 42);
        assert_eq!(Target::Whole.index(), None);
        assert_eq!(Target::None.span(42), 0);
    }

    #[test]
    fn event_coverage() {
        let e = AccessEvent::at(0, AccessKind::Read, 3, 10);
        assert!((e.coverage() - 0.1).abs() < 1e-12);
        let w = AccessEvent::whole(1, AccessKind::Sort, 10);
        assert!((w.coverage() - 1.0).abs() < 1e-12);
        let empty = AccessEvent::whole(2, AccessKind::Clear, 0);
        assert_eq!(empty.coverage(), 0.0);
    }

    #[test]
    fn positional_kinds() {
        assert!(AccessKind::Read.is_positional());
        assert!(AccessKind::Insert.is_positional());
        assert!(!AccessKind::Sort.is_positional());
        assert!(!AccessKind::Clear.is_positional());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in AccessKind::ALL {
            assert!(
                seen.insert(k.mnemonic()),
                "duplicate mnemonic {}",
                k.mnemonic()
            );
        }
    }
}
