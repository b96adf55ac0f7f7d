//! `multiring` — a simulator of the Schroeder–Saltzer hardware
//! architecture for protection rings (3rd SOSP, 1971 / CACM 15(3),
//! 1972), together with the Multics-like system substrate the
//! mechanisms exist to protect.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] (`ring-core`) — the paper's contribution as pure logic:
//!   storage formats (Fig. 3), brackets, per-reference validation
//!   (Figs. 4, 6, 7), effective-ring formation (Fig. 5), and the
//!   CALL/RETURN ring-switching decisions (Figs. 8, 9).
//! * [`segmem`] (`ring-segmem`) — physical memory, descriptor-segment
//!   translation with an SDW associative memory, and demand paging.
//! * [`cpu`] (`ring-cpu`) — the cycle-counting 36-bit processor: full
//!   instruction cycle, traps, privileged instructions, I/O channels,
//!   and native procedure segments.
//! * [`asm`] (`ring-asm`) — a two-pass assembler/disassembler for the
//!   simulator ISA.
//! * [`os`] (`ring-os`) — ACLs, processes, a layered supervisor (rings
//!   0–1), user protected subsystems (ring 2), and the evaluation
//!   baselines (645-style software rings; two-mode machine).
//! * [`sched`] (`ring-sched`) — processor multiplexing: the ready/
//!   blocked queues and counters behind the preemptive round-robin
//!   scheduler in `ring-os`.
//! * [`metrics`] (`ring-metrics`) — the observability layer: ring-
//!   crossing telemetry, fault accounting, cycle histograms, per-segment
//!   heatmaps, and JSON/CSV export (see `docs/OBSERVABILITY.md`).
//! * [`trace`] (`ring-trace`) — the flight recorder: span-based
//!   ring-crossing traces with per-gate cycle attribution, Chrome
//!   trace-event / Perfetto export, and deterministic record/replay
//!   containers.
//! * [`prof`] (`ring-prof`) — cycle-attributed profiling: the
//!   deterministic sampling profiler (folded-stack / flamegraph
//!   export), interval time-series telemetry, and Perfetto counter
//!   tracks.
//! * [`fleet`] (`ring-fleet`) — thousands of deterministic machines
//!   across host threads, booted from one shared copy-on-write image,
//!   with fleet-level snapshot aggregation (see `docs/FLEET.md`).
//!
//! Its own module [`cli`] holds the command line that the `runasm` and
//! `ringdbg` tools share: the machine flags and the builder of the world
//! they describe.
//!
//! # Quickstart
//!
//! ```
//! use multiring::os::{System, Acl, AclEntry, Modes};
//! use multiring::core::ring::Ring;
//! use multiring::core::word::Word;
//!
//! // Boot a system, log a user in, create a stored segment.
//! let mut sys = System::boot();
//! let pid = sys.login("alice");
//! let acl = Acl::single(
//!     AclEntry::new("alice", Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap(),
//! );
//! sys.create_segment("udd>alice>hello", acl, vec![Word::new(42)]);
//! assert_eq!(sys.state().fs.segment_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use ring_asm as asm;
pub use ring_core as core;
pub use ring_cpu as cpu;
pub use ring_fleet as fleet;
pub use ring_metrics as metrics;
pub use ring_os as os;
pub use ring_prof as prof;
pub use ring_sched as sched;
pub use ring_segmem as segmem;
pub use ring_trace as trace;
