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
//!   buffers events locally (no shared state on the hot path) and ships
//!   them in batches through the session's hand-off queue, one lock per
//!   ship. At most [`MAX_BATCHES_IN_FLIGHT`] batches are shipped and not
//!   yet stored; a producer that gets that far ahead waits for the
//!   collector, and the collector hands every emptied batch back for the
//!   producers to refill.
//! * A dedicated **collector thread** takes the batches and encodes each
//!   one on arrival into its instance's capture body (the v4 chunk format
//!   of [`dsspy_events::encode`], about 4 bytes per event), off the
//!   application's critical path. A collector that keeps up parks between
//!   bursts: a ship wakes it only once a burst of batches is queued, and
//!   it looks at the queue by itself every millisecond, so it costs the
//!   producer a wake per burst, not per batch.
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
//! Each event's one timestamp is a logical tick from a Lamport clock kept
//! per thread and per instance ([`clock`]): recording reads no clock and
//! touches no counter shared between threads. Wall time is kept per
//! session (the collector stamps `session_nanos` at shutdown) and per
//! batch (telemetry). Every event carries the
//! [`dsspy_events::ThreadTag`] of the thread that raised it so that
//! multi-threaded programs can be profiled (§IV).

#![warn(missing_docs)]

pub mod clock;
pub mod collector;
pub mod fanout;
pub mod persist;
mod pool;
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
pub use pool::MAX_BATCHES_IN_FLIGHT;
pub use registry::Registry;
pub use session::{InstanceHandle, Session, SessionBuilder, SessionConfig};
pub use store::Profiles;
