//! Canned workloads, shared by every harness.
//!
//! This module is the single home for workload construction. The
//! benchmark (`bench/`), the fleet runner (`ring-fleet`), the machine
//! tools, and the test suites all build their worlds here instead of
//! keeping private copies:
//!
//! * the storm builders (re-exported at this level) — multiprocess
//!   workloads on a booted [`crate::boot::System`]: the demand-paging
//!   *page storm* ([`install_page_storm`]) and the cross-ring *gate
//!   storm* ([`install_gate_storm`]).
//! * [`micro`] — single-process microbenchmark worlds on a bare
//!   [`ring_cpu::testkit::World`] (tight loop, gate storm, indirect
//!   chain), used by the benchmark and the differential and replay
//!   tests.

pub mod micro;
mod storm;

pub use storm::{
    install_gate_storm, install_page_storm, install_storm_program, try_install_gate_storm,
    try_install_page_storm, try_install_storm_program, GateStormSpec, StormProc, StormSpec,
    STORM_DATA_SEGNO,
};
