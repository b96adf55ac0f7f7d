//! Flight recorder for the ring-protection simulator.
//!
//! The paper's central claims are *causal*, not aggregate: a CALL
//! through a gate nests execution inside a lower ring until the
//! matching RETURN (Figs. 8–9 of the SOSP 1971 paper), and traps are
//! the one expensive path. This crate records that nesting directly:
//!
//! - [`span`] — the span model. CALL and trap entry open a span keyed
//!   by `(ring, segment, entry word)`; RETURN and trap exit close it.
//!   The recorder stores events in one byte stream: a fixed 8-byte
//!   open and 2-byte close for the common crossings, a varint form
//!   for everything else, cycle deltas, and each instant name once.
//!   [`span::build_tree`] turns the raw event stream into a cross-ring
//!   call tree with self/total simulated-cycle attribution, and
//!   [`span::gate_table`] aggregates it per gate.
//! - [`perfetto`] — Chrome trace-event / Perfetto JSON export of a span
//!   stream (one track per ring, instant events for faults and access
//!   violations) loadable in `ui.perfetto.dev` or `chrome://tracing`,
//!   written to an `io::Write` record by record.
//! - [`recording`] — the deterministic record/replay container: the
//!   initial machine image, periodic checkpoints, and every I/O
//!   completion, serialized as JSON.
//! - [`json`] — the minimal JSON reader the recording loader uses (the
//!   workspace has no serde), and the array writer the streaming
//!   exports share.
//!
//! The crate is pure data — it knows nothing about the machine. The
//! `ring-cpu` crate emits span events from its CALL/RETURN/trap paths
//! and encodes machine images; binaries and tests consume the streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod perfetto;
pub mod recording;
pub mod span;

pub use recording::{Checkpoint, IoEvent, Recording, RECORDING_SCHEMA};
pub use span::{
    build_tree, gate_table, GateStat, InstantKind, Span, SpanEvent, SpanEvents, SpanKey, SpanKind,
    SpanRecorder, SpanTree,
};
