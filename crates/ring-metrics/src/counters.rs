//! Counter families: ring crossings, faults, and opcode classes.

use ring_core::access::{vector, Fault};
use ring_core::ring::Ring;

/// Number of rings in the architecture.
pub const NUM_RINGS: usize = 8;

/// Number of distinct trap vectors (mirrors [`Fault::NUM_VECTORS`]).
pub const NUM_VECTORS: usize = Fault::NUM_VECTORS as usize;

/// The ways control moves between (or within) rings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Crossing {
    /// Hardware CALL that lowered the ring of execution through a gate
    /// (Fig. 8) — no trap involved.
    CallDown,
    /// Hardware CALL that stayed in the same ring.
    CallSameRing,
    /// Hardware RETURN that raised the ring of execution (Fig. 9).
    ReturnUp,
    /// Hardware RETURN that stayed in the same ring.
    ReturnSameRing,
    /// Any trap forcing the ring of execution to 0.
    TrapToRing0,
    /// The upward-call software trap (legitimate crossing completed by
    /// the supervisor).
    UpwardCallTrap,
    /// The downward-return software trap (ditto).
    DownwardReturnTrap,
}

impl Crossing {
    /// Every crossing kind, in export order.
    pub const ALL: [Crossing; 7] = [
        Crossing::CallDown,
        Crossing::CallSameRing,
        Crossing::ReturnUp,
        Crossing::ReturnSameRing,
        Crossing::TrapToRing0,
        Crossing::UpwardCallTrap,
        Crossing::DownwardReturnTrap,
    ];

    /// Stable machine-readable name (JSON/CSV key).
    pub fn key(self) -> &'static str {
        match self {
            Crossing::CallDown => "call_down",
            Crossing::CallSameRing => "call_same_ring",
            Crossing::ReturnUp => "return_up",
            Crossing::ReturnSameRing => "return_same_ring",
            Crossing::TrapToRing0 => "trap_to_ring0",
            Crossing::UpwardCallTrap => "upward_call_trap",
            Crossing::DownwardReturnTrap => "downward_return_trap",
        }
    }

    fn index(self) -> usize {
        match self {
            Crossing::CallDown => 0,
            Crossing::CallSameRing => 1,
            Crossing::ReturnUp => 2,
            Crossing::ReturnSameRing => 3,
            Crossing::TrapToRing0 => 4,
            Crossing::UpwardCallTrap => 5,
            Crossing::DownwardReturnTrap => 6,
        }
    }

    /// True for the kinds that actually change the ring of execution.
    pub fn changes_ring(self) -> bool {
        !matches!(self, Crossing::CallSameRing | Crossing::ReturnSameRing)
    }
}

/// Ring-crossing counts: per-kind totals plus a from×to ring matrix.
#[derive(Clone, Debug, Default)]
pub struct CrossingCounters {
    counts: [u64; Crossing::ALL.len()],
    /// `matrix[from][to]` — transitions of the ring of execution,
    /// including same-ring calls/returns on the diagonal.
    pub matrix: [[u64; NUM_RINGS]; NUM_RINGS],
}

impl CrossingCounters {
    /// Records one crossing of `kind` from ring `from` to ring `to`.
    pub fn record(&mut self, kind: Crossing, from: Ring, to: Ring) {
        self.counts[kind.index()] += 1;
        self.matrix[from.number() as usize][to.number() as usize] += 1;
    }

    /// Count for one crossing kind.
    pub fn count(&self, kind: Crossing) -> u64 {
        self.counts[kind.index()]
    }

    /// Total crossings of every kind (including same-ring).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total events that changed the ring of execution.
    pub fn total_ring_changes(&self) -> u64 {
        Crossing::ALL
            .iter()
            .filter(|k| k.changes_ring())
            .map(|k| self.count(*k))
            .sum()
    }

    /// `(export key, count)` for every kind, in [`Crossing::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Crossing::ALL.into_iter().map(|k| (k.key(), self.count(k)))
    }

    /// Adds `other`'s counts, matrix included, into these.
    pub fn merge(&mut self, other: &CrossingCounters) {
        add_counts(&mut self.counts, &other.counts);
        for (mine, theirs) in self.matrix.iter_mut().zip(&other.matrix) {
            add_counts(mine, theirs);
        }
    }
}

/// Instruction classes by operand reference — the paper's grouping for
/// access validation (Figs. 6 and 7). Mirrors `ring-cpu`'s `OperandUse`
/// without depending on it (the CPU crate maps between the two).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// Reads the operand word.
    Read,
    /// Writes the operand word.
    Write,
    /// Reads then writes the operand word.
    ReadWrite,
    /// Writes a two-word indirect pair.
    WritePair,
    /// Loads the effective address into a pointer register.
    Pointer,
    /// Ordinary transfer of control.
    Transfer,
    /// The CALL instruction.
    Call,
    /// The RETURN instruction.
    Return,
    /// Uses only the effective word number as data.
    AddressOnly,
    /// No operand reference at all.
    NoOperand,
}

impl OpClass {
    /// Every class, in export order.
    pub const ALL: [OpClass; 10] = [
        OpClass::Read,
        OpClass::Write,
        OpClass::ReadWrite,
        OpClass::WritePair,
        OpClass::Pointer,
        OpClass::Transfer,
        OpClass::Call,
        OpClass::Return,
        OpClass::AddressOnly,
        OpClass::NoOperand,
    ];

    /// Stable machine-readable name (JSON/CSV key).
    pub fn key(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::ReadWrite => "read_write",
            OpClass::WritePair => "write_pair",
            OpClass::Pointer => "pointer",
            OpClass::Transfer => "transfer",
            OpClass::Call => "call",
            OpClass::Return => "return",
            OpClass::AddressOnly => "address_only",
            OpClass::NoOperand => "no_operand",
        }
    }

    /// The class's position in [`OpClass::ALL`], which lists the
    /// variants in declaration order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Instruction counts by operand-reference class.
#[derive(Clone, Debug, Default)]
pub struct OpClassCounters {
    counts: [u64; OpClass::ALL.len()],
}

impl OpClassCounters {
    /// Records one instruction of `class`.
    pub fn record(&mut self, class: OpClass) {
        self.record_n(class, 1);
    }

    /// Records `n` instructions of `class`.
    pub(crate) fn record_n(&mut self, class: OpClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Count for one class.
    pub fn count(&self, class: OpClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total instructions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(export key, count)` for every class, in [`OpClass::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        OpClass::ALL.into_iter().map(|c| (c.key(), self.count(c)))
    }

    /// Adds `other`'s counts into these.
    pub fn merge(&mut self, other: &OpClassCounters) {
        add_counts(&mut self.counts, &other.counts);
    }
}

/// The stable export name of a trap vector.
pub fn vector_key(v: u32) -> &'static str {
    match v {
        vector::ACCESS_VIOLATION => "access_violation",
        vector::UPWARD_CALL => "upward_call",
        vector::DOWNWARD_RETURN => "downward_return",
        vector::SEGMENT_FAULT => "segment_fault",
        vector::PAGE_FAULT => "page_fault",
        vector::PRIVILEGED => "privileged",
        vector::ILLEGAL_OPCODE => "illegal_opcode",
        vector::ILLEGAL_MODIFIER => "illegal_modifier",
        vector::INDIRECT_LIMIT => "indirect_limit",
        vector::DERAIL => "derail",
        vector::TIMER_RUNOUT => "timer_runout",
        vector::IO_COMPLETION => "io_completion",
        vector::PHYSICAL_BOUNDS => "physical_bounds",
        vector::HALT => "halt",
        vector::PARITY_ERROR => "parity_error",
        vector::IO_ERROR => "io_error",
        _ => "unknown",
    }
}

/// Fault counts keyed by trap vector and by faulting ring.
#[derive(Clone, Debug, Default)]
pub struct FaultCounters {
    /// Counts indexed by [`Fault::vector`].
    pub by_vector: [u64; NUM_VECTORS],
    /// Counts indexed by the ring of execution at fault time.
    pub by_ring: [u64; NUM_RINGS],
}

impl FaultCounters {
    /// Records one fault detected while executing in `ring`.
    pub fn record(&mut self, fault: &Fault, ring: Ring) {
        self.by_vector[fault.vector() as usize] += 1;
        self.by_ring[ring.number() as usize] += 1;
    }

    /// Count for one trap vector.
    pub fn count_vector(&self, v: u32) -> u64 {
        self.by_vector[v as usize]
    }

    /// Total faults recorded.
    pub fn total(&self) -> u64 {
        self.by_vector.iter().sum()
    }

    /// `(export key, count)` for every trap vector, in vector order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        (0..NUM_VECTORS as u32).map(|v| (vector_key(v), self.count_vector(v)))
    }

    /// Adds `other`'s counts, both keyings, into these.
    pub fn merge(&mut self, other: &FaultCounters) {
        add_counts(&mut self.by_vector, &other.by_vector);
        add_counts(&mut self.by_ring, &other.by_ring);
    }
}

/// Adds each count of `theirs` into the same slot of `mine`.
pub(crate) fn add_counts(mine: &mut [u64], theirs: &[u64]) {
    for (m, t) in mine.iter_mut().zip(theirs) {
        *m += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_matrix_and_kinds_agree() {
        let mut c = CrossingCounters::default();
        c.record(Crossing::CallDown, Ring::R4, Ring::R1);
        c.record(Crossing::CallDown, Ring::R4, Ring::R1);
        c.record(Crossing::ReturnUp, Ring::R1, Ring::R4);
        c.record(Crossing::CallSameRing, Ring::R4, Ring::R4);
        assert_eq!(c.count(Crossing::CallDown), 2);
        assert_eq!(c.matrix[4][1], 2);
        assert_eq!(c.matrix[1][4], 1);
        assert_eq!(c.matrix[4][4], 1);
        assert_eq!(c.total(), 4);
        assert_eq!(c.total_ring_changes(), 3);
    }

    #[test]
    fn opclass_index_is_the_position_in_all() {
        for (i, c) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.key());
        }
    }

    #[test]
    fn opclass_indices_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in OpClass::ALL {
            assert!(seen.insert(c.key()), "duplicate key {}", c.key());
        }
        let mut oc = OpClassCounters::default();
        for c in OpClass::ALL {
            oc.record(c);
        }
        assert_eq!(oc.total(), OpClass::ALL.len() as u64);
    }

    #[test]
    fn fault_counters_key_by_vector_and_ring() {
        let mut f = FaultCounters::default();
        f.record(&Fault::TimerRunout, Ring::R3);
        f.record(&Fault::TimerRunout, Ring::R3);
        f.record(&Fault::IllegalModifier, Ring::R0);
        assert_eq!(f.count_vector(vector::TIMER_RUNOUT), 2);
        assert_eq!(f.by_ring[3], 2);
        assert_eq!(f.by_ring[0], 1);
        assert_eq!(f.total(), 3);
    }

    #[test]
    fn every_vector_has_a_distinct_key() {
        let mut seen = std::collections::HashSet::new();
        for v in 0..Fault::NUM_VECTORS {
            let k = vector_key(v);
            assert_ne!(k, "unknown");
            assert!(seen.insert(k), "duplicate vector key {k}");
        }
    }
}
