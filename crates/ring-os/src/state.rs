//! Operating-system state.
//!
//! Native supervisor procedures are closures registered with the
//! machine. What they mutate — [`OsState`] and the physical allocator,
//! together a [`Kernel`] — lives in the machine's native-state slot and
//! is lent to a body for the length of its call, so cloning the machine
//! clones the supervisor with it.

use std::collections::HashMap;

use ring_core::registers::Ipr;
use ring_core::ring::Ring;
use ring_cpu::machine::Machine;
use ring_sched::Scheduler;
use ring_segmem::layout::PhysAllocator;
use ring_segmem::{BackingStore, FramePool};

use crate::fs::FileSystem;
use crate::process::ProcessState;

/// A record written by the audit protected subsystem (rings 2–3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// User whose process made the audited reference.
    pub user: String,
    /// Ring the caller was executing in.
    pub caller_ring: Ring,
    /// Description of the audited operation.
    pub operation: String,
}

/// Counters kept by the supervisor.
#[derive(Clone, Copy, Debug, Default)]
pub struct SupervisorStats {
    /// Segment faults serviced (demand segment loading).
    pub segment_faults: u64,
    /// Page faults serviced (demand paging).
    pub page_faults: u64,
    /// Software-mediated upward calls.
    pub upward_calls: u64,
    /// Software-mediated downward returns.
    pub downward_returns: u64,
    /// Downward returns refused (no matching return gate).
    pub forged_returns_refused: u64,
    /// Scheduler switches (timer runouts serviced).
    pub schedules: u64,
    /// I/O completions serviced.
    pub io_completions: u64,
    /// Gate invocations, by segment: (hcs, ring1).
    pub gate_calls_hcs: u64,
    /// Ring-1 gate invocations.
    pub gate_calls_ring1: u64,
    /// Processes aborted on unhandled faults.
    pub aborts: u64,
    /// Requests refused by ACL lookup (no entry, or no modes granted).
    pub acl_denials: u64,
}

impl SupervisorStats {
    /// Flattens the counters into namespaced `os.*` pairs for a metrics
    /// snapshot's `extra` section.
    pub fn export_pairs(&self) -> Vec<(String, u64)> {
        vec![
            ("os.segment_faults".into(), self.segment_faults),
            ("os.page_faults".into(), self.page_faults),
            ("os.upward_calls".into(), self.upward_calls),
            ("os.downward_returns".into(), self.downward_returns),
            (
                "os.forged_returns_refused".into(),
                self.forged_returns_refused,
            ),
            ("os.schedules".into(), self.schedules),
            ("os.io_completions".into(), self.io_completions),
            ("os.gate_calls_hcs".into(), self.gate_calls_hcs),
            ("os.gate_calls_ring1".into(), self.gate_calls_ring1),
            ("os.aborts".into(), self.aborts),
            ("os.acl_denials".into(), self.acl_denials),
        ]
    }
}

/// Counters kept by the supervisor's fault-recovery paths (parity
/// recovery, drum retry, I/O watchdog service). Only meaningful — and
/// only exported — when the chaos engine is armed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosRecoveryStats {
    /// Faults fully recovered (the damaged state was repaired or
    /// rebuilt and the system continued).
    pub recovered: u64,
    /// Processes killed to confine damage that could not be repaired.
    pub killed: u64,
    /// Pages or segment words re-fetched from their home image after a
    /// parity error destroyed the in-core copy.
    pub refetched: u64,
    /// Descriptor or page-table words the salvager rewrote as missing
    /// (forcing a clean re-fault instead of trusting damaged state).
    pub salvaged: u64,
    /// Drum transfers retried after an injected read or write error.
    pub drum_retries: u64,
    /// I/O watchdog expiries serviced (lost completion converted into a
    /// wake-up of the stranded waiter).
    pub io_timeouts: u64,
    /// Post-recovery invariant checks that failed (damage escaped the
    /// recovery path; should stay zero).
    pub invariant_failures: u64,
}

impl ChaosRecoveryStats {
    /// Flattens the counters into namespaced `chaos.*` pairs for a
    /// metrics snapshot's `extra` section (alongside the engine's own
    /// injection ledger).
    pub fn export_pairs(&self) -> Vec<(String, u64)> {
        vec![
            ("chaos.recovered".into(), self.recovered),
            ("chaos.killed".into(), self.killed),
            ("chaos.refetched".into(), self.refetched),
            ("chaos.salvaged".into(), self.salvaged),
            ("chaos.drum_retries".into(), self.drum_retries),
            ("chaos.io_timeouts".into(), self.io_timeouts),
            ("chaos.invariant_failures".into(), self.invariant_failures),
        ]
    }
}

/// Everything the supervisor's native bodies mutate, as one value: the
/// supervisor state and the physical allocator. It is the machine's
/// native-state value on a booted system.
#[derive(Clone)]
pub struct Kernel {
    /// The supervisor state.
    pub os: OsState,
    /// The physical-storage allocator.
    pub alloc: PhysAllocator,
}

impl Kernel {
    /// Lends the kernel out of `m`'s native-state slot to `f` for the
    /// length of the call (how a native body reaches it).
    ///
    /// # Panics
    ///
    /// Panics when `m` carries no kernel: the supervisor bodies are
    /// only ever registered by [`crate::boot::System`], which installs
    /// one first.
    pub(crate) fn lend<R>(m: &mut Machine, f: impl FnOnce(&mut Machine, &mut Kernel) -> R) -> R {
        m.with_native_state(f)
            .expect("supervisor body runs on a machine booted with a kernel")
    }
}

/// The supervisor's in-memory state.
///
/// `Clone` is what makes a booted system cloneable: a checkpoint is a
/// clone of the whole system ([`crate::boot::System::checkpoint`]).
#[derive(Clone)]
pub struct OsState {
    /// Registered user names.
    pub users: Vec<String>,
    /// On-line storage.
    pub fs: FileSystem,
    /// All processes, indexed by process id.
    pub processes: Vec<ProcessState>,
    /// Currently executing process.
    pub current: usize,
    /// The audit subsystem's log.
    pub audit_log: Vec<AuditRecord>,
    /// Per-user account balances (ring-1 accounting layer).
    pub accounts: HashMap<String, i64>,
    /// Supervisor counters.
    pub stats: SupervisorStats,
    /// Scheduler quantum in cycles (timer reload value).
    pub quantum: u64,
    /// Trace of scheduler decisions (process ids), for tests.
    pub schedule_trace: Vec<usize>,
    /// Run and blocked queues plus scheduling counters.
    pub sched: Scheduler,
    /// Physical-frame budget for demand paging, when one is configured;
    /// `None` means frames are never reclaimed (the legacy behaviour).
    pub frames: Option<FramePool>,
    /// The simulated drum holding evicted pages.
    pub backing: BackingStore,
    /// Simulated cycles a drum transfer takes; a major page fault
    /// blocks the faulting process for this long.
    pub page_in_latency: u64,
    /// Fault-recovery counters (chaos runs).
    pub chaos: ChaosRecoveryStats,
    /// Consecutive failed drum reads per `(pid, segno, page)`, for the
    /// bounded-retry-with-backoff policy. An entry disappears when the
    /// read finally succeeds or the process is killed.
    pub drum_attempts: HashMap<(usize, u32, u32), u32>,
}

impl OsState {
    /// Fresh state with no users or processes.
    pub fn new() -> OsState {
        OsState {
            users: Vec::new(),
            fs: FileSystem::new(),
            processes: Vec::new(),
            current: 0,
            audit_log: Vec::new(),
            accounts: HashMap::new(),
            stats: SupervisorStats::default(),
            quantum: 5_000,
            schedule_trace: Vec::new(),
            sched: Scheduler::new(),
            frames: None,
            backing: BackingStore::new(),
            page_in_latency: 1_000,
            chaos: ChaosRecoveryStats::default(),
            drum_attempts: HashMap::new(),
        }
    }

    /// Registers a user name (idempotent) and opens an account.
    pub fn add_user(&mut self, name: &str) {
        if !self.users.iter().any(|u| u == name) {
            self.users.push(name.to_string());
            self.accounts.insert(name.to_string(), 0);
        }
    }

    /// True if `name` is a registered user.
    pub fn has_user(&self, name: &str) -> bool {
        self.users.iter().any(|u| u == name)
    }

    /// The currently executing process.
    ///
    /// # Panics
    ///
    /// Panics if no process exists yet.
    pub fn current_process(&self) -> &ProcessState {
        &self.processes[self.current]
    }

    /// Mutable access to the currently executing process.
    ///
    /// # Panics
    ///
    /// Panics if no process exists yet.
    pub fn current_process_mut(&mut self) -> &mut ProcessState {
        let i = self.current;
        &mut self.processes[i]
    }

    /// Pushes a dynamic return gate for the current process (software
    /// upward-call bookkeeping).
    pub fn push_return_gate(&mut self, caller_ring: Ring, continuation: Ipr) {
        self.current_process_mut()
            .return_gates
            .push((caller_ring, continuation));
    }

    /// Pops the top return gate for the current process.
    pub fn pop_return_gate(&mut self) -> Option<(Ring, Ipr)> {
        self.current_process_mut().return_gates.pop()
    }

    /// The next runnable (non-aborted) process after `from`, if any.
    pub fn next_runnable(&self, from: usize) -> Option<usize> {
        let n = self.processes.len();
        (1..=n)
            .map(|k| (from + k) % n)
            .find(|&i| self.processes[i].aborted.is_none())
    }
}

impl Default for OsState {
    fn default() -> Self {
        OsState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn users_are_deduplicated_with_accounts() {
        let mut s = OsState::new();
        s.add_user("alice");
        s.add_user("alice");
        assert_eq!(s.users.len(), 1);
        assert!(s.has_user("alice"));
        assert!(!s.has_user("bob"));
        assert_eq!(s.accounts["alice"], 0);
    }

    #[test]
    fn next_runnable_skips_aborted() {
        let mut s = OsState::new();
        for i in 0..3 {
            s.processes
                .push(ProcessState::new_for_test(&format!("u{i}")));
        }
        assert_eq!(s.next_runnable(0), Some(1));
        s.processes[1].aborted = Some("boom".into());
        assert_eq!(s.next_runnable(0), Some(2));
        assert_eq!(s.next_runnable(2), Some(0));
        s.processes[0].aborted = Some("x".into());
        s.processes[2].aborted = Some("y".into());
        assert_eq!(s.next_runnable(0), None);
    }
}
