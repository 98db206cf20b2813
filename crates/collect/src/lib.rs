//! # dsspy-collect — runtime profile collection
//!
//! This crate is the dynamic-analysis substrate of DSspy (paper §IV,
//! *Creation of runtime profiles*). The paper instruments interface methods
//! via Roslyn and ships access events to a separate analysis process over
//! asynchronous intra-process communication, explicitly to avoid the two
//! classic log-sink pitfalls: file I/O is slow, and in-memory logs have a
//! hard size ceiling inside the profiled process.
//!
//! We reproduce the same architecture inside one Rust process:
//!
//! * Every instrumented data structure owns an [`InstanceHandle`] that
//!   buffers events locally (no locking on the hot path) and ships them in
//!   batches over a crossbeam channel.
//! * A dedicated **collector thread** receives the batches and encodes each
//!   one on arrival into its instance's capture body (the v4 chunk format
//!   of [`dsspy_events::encode`], about 4 bytes per event), off the
//!   application's critical path.
//! * When the [`Session`] is finished, the collector drains and joins, and
//!   the sealed bodies are handed to post-mortem analysis as a [`Capture`]:
//!   saved unchanged, folded chunk by chunk, and decoded into
//!   [`dsspy_events::RuntimeProfile`]s only when a caller reads them
//!   ([`Profiles`]). A capture loaded from a file holds its bodies the
//!   same way.
//! * Live consumers implement the [`CollectorTap`] hook and subscribe to a
//!   [`TapFanout`], the only tap the collector drives: it multiplexes one
//!   session to any number of subscribers with per-subscriber panic
//!   isolation — the substrate of the long-running service surfaces
//!   (`dsspy watch --follow`, `dsspy telemetry serve --live`), which put
//!   the streaming analyzer on it.
//! * One [`dsspy_telemetry::Telemetry`] handle observes the whole session:
//!   metrics, spans and, when armed, the flight recorder, all on one clock.
//!
//! Each event's one timestamp is a logical tick, the session-global atomic
//! sequence number of the [`SessionClock`]: recording reads no clock. Wall
//! time is kept per session (the collector stamps `session_nanos` at
//! shutdown) and per batch (telemetry). Every event carries the
//! [`dsspy_events::ThreadTag`] of the thread that raised it so that
//! multi-threaded programs can be profiled (§IV).

#![warn(missing_docs)]

pub mod clock;
pub mod collector;
pub mod fanout;
pub mod persist;
pub mod registry;
pub mod session;
pub mod store;

pub use clock::SessionClock;
pub use collector::{Capture, CollectorStats, CollectorTap, QUEUE_WATERMARK};
pub use fanout::{CaptureRecorder, TapFanout};
pub use persist::{
    load_capture_with, read_capture_with, save_capture, save_capture_with, write_capture,
    write_capture_with, PersistError, ReadOptions,
};
pub use registry::Registry;
pub use session::{InstanceHandle, Session, SessionBuilder, SessionConfig};
pub use store::Profiles;
