//! # dsspy-collections — instrumented object-oriented data structures
//!
//! The paper instruments the interface methods of `List<T>` and arrays with
//! Roslyn so that every data interaction produces an access event (§IV).
//! Rust has no managed runtime to rewrite, so this crate takes the route the
//! paper itself names for extensibility: *"we implemented the dynamic
//! profiler using the proxy design pattern so that it is easily extensible
//! to runtime profiles of other data structures"*. Each `Spy*` type wraps a
//! std container, exposes the same interface-method surface as its CTS
//! counterpart, and emits one [`dsspy_events::AccessEvent`] per call.
//!
//! | Type | CTS analogue | Event-producing surface |
//! |---|---|---|
//! | [`SpyVec<T>`] | `List<T>` | indexer, `add`, `insert`, `remove*`, `clear`, `contains`, `index_of`, `binary_search`, `sort`, `reverse`, `to_vec`, iteration |
//! | [`SpyArray<T>`] | `T[]` | indexer, `fill`, `copy_to`, `resize`, iteration |
//! | [`SpyDeque<T>`] | — | both-ends push/pop, indexer |
//! | [`SpyStack<T>`] | `Stack<T>` | `push`, `pop`, `peek` |
//! | [`SpyQueue<T>`] | `Queue<T>` | `enqueue`, `dequeue`, `peek` |
//! | [`SpyMap<K,V>`] | `Dictionary<K,V>` | `insert`, `get`, `remove`, `contains_key` |
//! | [`SpyHashSet<T>`] | `HashSet<T>` | `insert`, `contains`, `remove`, `clear`, `for_each` |
//! | [`SpyLinkedList<T>`] | `LinkedList<T>` | `add_first`/`add_last`, `remove_first`/`remove_last`, indexer, `find`, `clear` |
//! | [`SpySortedList<K,V>`] | `SortedList<K,V>` | `insert`, `get`, `get_by_index`, `remove`, `clear` |
//!
//! Every type holds one crate-private `Probe`, the only place that registers
//! an instance, names its element type and decides between live recording
//! and **ghost mode** (`plain`), where the wrapper compiles down to the raw
//! container operation — the baseline for the paper's slowdown measurements
//! (Table IV).

#![warn(missing_docs)]

pub mod array;
pub mod deque;
pub mod hashset;
pub mod linked_list;
pub mod list;
pub mod map;
mod probe;
pub mod queue;
pub mod sorted_list;
pub mod stack;

pub use array::SpyArray;
pub use deque::SpyDeque;
pub use hashset::SpyHashSet;
pub use linked_list::SpyLinkedList;
pub use list::SpyVec;
pub use map::SpyMap;
pub use queue::SpyQueue;
pub use sorted_list::SpySortedList;
pub use stack::SpyStack;

/// Build an [`dsspy_events::AllocationSite`] at the expansion site.
///
/// `site!()` uses the enclosing module path as the "class" and the source
/// line as the position; pass a method name for Table-V-style reports:
/// `site!("FitnessProportionateSelection")`.
#[macro_export]
macro_rules! site {
    () => {
        ::dsspy_events::AllocationSite::new(module_path!(), "?", line!())
    };
    ($method:expr) => {
        ::dsspy_events::AllocationSite::new(module_path!(), $method, line!())
    };
}
