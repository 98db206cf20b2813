//! # dsspy-events — the access-event model
//!
//! This crate defines the vocabulary shared by every other DSspy crate: what
//! an *access event* is, how events identify the data-structure *instance*
//! they belong to, and how a chronological sequence of events forms a
//! *runtime profile*.
//!
//! The model follows §IV of the paper (Molitorisz et al., IPDPS 2014). For
//! each access event DSspy records:
//!
//! * **Time stamp** — when did the event occur? One logical tick, `seq`,
//!   totally orders the events of all instances of a session; runtime
//!   shares are spans of ticks.
//! * **Read/Write** — did the event read or write the data structure?
//! * **Position** — what location of the data structure was accessed?
//! * **Size** — what was the size of the structure at the moment of access?
//! * **Thread id** — what thread raised the access event?
//!
//! Access *types* come in two tiers (paper §IV): the trivial types `Read` and
//! `Write`, and the compound types `Insert`, `Search`, `Delete`, `Clear`,
//! `Copy`, `Reverse`, `Sort` and `ForAll`.
//!
//! The crate is dependency-light by design; the runtime collector
//! (`dsspy-collect`), the instrumented collections, the pattern miner and
//! the use-case classifier all speak these types.

#![warn(missing_docs)]

pub mod encode;
pub mod event;
pub mod instance;
pub mod profile;
pub mod series;

pub use event::{AccessClass, AccessEvent, AccessKind, Target, ThreadTag};
pub use instance::{AllocationSite, DsKind, InstanceId, InstanceInfo, Origin};
pub use profile::RuntimeProfile;
pub use series::{size_series, Series};
