//! The fast-path execution engine.
//!
//! [`Machine::step`] first attempts [`Machine::try_execute_fast`]: a
//! re-implementation of the common instructions built on two caches —
//! the ring-checked translation lookaside in `ring-segmem`
//! ([`ring_segmem::fastpath::RingTlb`], reached through
//! [`ring_segmem::translate::Translator`]) and the predecoded
//! instruction cache here ([`ICache`]). The attempt either *commits* a
//! whole instruction or *bails* with every piece of machine state
//! untouched, after which the untouched slow path runs as always.
//!
//! # The parity contract
//!
//! With the fast path enabled, every architectural outcome — registers,
//! memory, faults, trap sequences, and **simulated cycle counts** — must
//! be bit-identical to a run with `MachineConfig::fastpath` off. The
//! mechanisms:
//!
//! * **Probe, then commit.** All reads during the attempt are uncounted
//!   peeks through pure TLB probes. Only a committing attempt mutates
//!   anything: it charges exactly the counted reads the slow path would
//!   have made ([`ring_segmem::phys::PhysMem::charge_reads`]), performs
//!   the (peek-preverified) operand write for real, and applies the
//!   instruction's register effects via the *same* helpers the slow
//!   path uses ([`Machine::exec_read_op`] and friends).
//! * **Share the walk.** Fig. 5 effective-address formation is the
//!   reference path's own walk ([`Machine::walk_ea`]), run on a probing
//!   port that reads each indirect pair with two probes and two peeks
//!   instead of a validated, counted read. This module holds no copy of
//!   the walk or of its ring folds.
//! * **Bail on anything that could fault.** Denials, bound overruns,
//!   missing pages, decode errors, indirect-limit overruns: the fast
//!   path never produces a fault itself; it steps aside and lets the
//!   slow path produce it, byte-for-byte.
//! * **Bail on anything rare.** SPRI, DRL and the privileged
//!   instructions always take the slow path.
//! * **Cross rings through the reference decision.** CALL and RETURN
//!   commit here when the target segment's SDW is resident in the
//!   associative memory. The Fig. 8/9 check is the slow path's own
//!   ([`Machine::check_call_return`], over the pure
//!   `ring_core::callret` functions), and so is the state change
//!   ([`Machine::apply_call_return`]); this module holds no copy of
//!   either. A refused crossing bails before anything moves, and the
//!   slow path raises the fault.
//! * **Mirror the observability surface.** A committed fast instruction
//!   makes one observer call carrying the same trace event and the same
//!   SDW-lookup, access-heatmap, instruction-mix and EA-depth counts as
//!   its slow twin reports, packed as one commit record
//!   ([`ring_metrics::commit`]).
//!
//! The instruction cache needs no invalidation protocol: each fetch
//! re-peeks the instruction word through the TLB translation and a hit
//! additionally requires the cached raw word to match, so self-modifying
//! code, DMA into code pages, and DBR switches all miss naturally. Its
//! slots live in a [`SlotTable`], so building, cloning and dropping it
//! handle only the slots it has filled.

use std::thread::LocalKey;

use ring_core::access::AccessMode;
use ring_core::addr::{AbsAddr, SegAddr, SegNo};
use ring_core::registers::{Ipr, PtrReg};
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_metrics::CommitRefs;
use ring_segmem::slot_table::{Clean, Slot, SlotTable, Stock, SLOTS};

use crate::ea::{EffAddr, PairPort};
use crate::isa::{Instr, Opcode, OperandUse};
use crate::machine::Machine;

/// Key marking an empty slot (real keys fit in 33 bits).
const ICACHE_EMPTY: u64 = u64::MAX;

/// `(segno, wordno)` packed into one key.
#[inline]
fn icache_key(addr: SegAddr) -> u64 {
    (u64::from(addr.segno.value()) << 18) | u64::from(addr.wordno.value())
}

#[inline]
fn icache_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize & (SLOTS - 1)
}

#[derive(Clone, Copy)]
struct ICacheEntry {
    key: u64,
    /// Raw instruction word the decode was made from. A hit requires
    /// the word currently in memory to match, which is what makes the
    /// cache self-invalidating.
    raw: u64,
    instr: Instr,
    /// `instr.opcode.operand_use()`, precomputed at install.
    use_class: OperandUse,
    /// Fast-path eligible: not privileged and not DRL. Cached so a hit
    /// on an ineligible instruction bails without re-deriving it.
    eligible: bool,
}

impl ICacheEntry {
    fn new(key: u64, raw: u64, instr: Instr) -> ICacheEntry {
        ICacheEntry {
            key,
            raw,
            instr,
            use_class: instr.opcode.operand_use(),
            eligible: !instr.opcode.privileged() && !matches!(instr.opcode, Opcode::Drl),
        }
    }
}

impl Slot for ICacheEntry {
    const EMPTY: ICacheEntry = ICacheEntry {
        key: ICACHE_EMPTY,
        raw: 0,
        instr: Instr::direct(Opcode::Nop, 0),
        use_class: OperandUse::None,
        eligible: true,
    };

    #[inline]
    fn is_empty(&self) -> bool {
        self.key == ICACHE_EMPTY
    }

    fn stock() -> &'static LocalKey<Stock<Clean<ICacheEntry>>> {
        thread_local!(static STOCK: Stock<Clean<ICacheEntry>> = const { Stock::new() });
        &STOCK
    }
}

/// Direct-mapped cache of decoded instructions keyed by `(segno,
/// wordno)` and guarded by a raw-word comparison.
///
/// Slots are flat (a sentinel key marks empty ones, not an `Option`),
/// keeping each entry one 32-byte load and the hit test one fused
/// compare — this lookup sits on the critical path of every fast-path
/// instruction.
#[derive(Clone)]
pub(crate) struct ICache {
    slots: SlotTable<ICacheEntry>,
    /// Fetches served from the cache (observability only).
    pub(crate) hits: u64,
    /// Fetches that had to decode (observability only).
    pub(crate) misses: u64,
}

impl ICache {
    fn new() -> ICache {
        ICache {
            slots: SlotTable::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the decoded instruction (and its precomputed operand
    /// class) for the word `raw` found at `addr`, from cache when the
    /// raw word still matches, decoding (and installing) otherwise.
    /// `None` on a decode error — those are faults and belong to the
    /// slow path — and on fast-path-ineligible instructions (the
    /// privileged group and DRL), which bail to their reference
    /// implementation.
    #[inline(always)]
    pub(crate) fn lookup_or_decode(
        &mut self,
        addr: SegAddr,
        raw: Word,
    ) -> Option<(Instr, OperandUse)> {
        let key = icache_key(addr);
        let slot = icache_slot(key);
        let e = self.slots.get(slot);
        if ((e.key ^ key) | (e.raw ^ raw.raw())) == 0 {
            let hit = *e;
            self.hits += 1;
            if !hit.eligible {
                return None;
            }
            return Some((hit.instr, hit.use_class));
        }
        let instr = Instr::decode(raw).ok()?;
        self.misses += 1;
        let entry = ICacheEntry::new(key, raw.raw(), instr);
        let out = entry.eligible.then_some((instr, entry.use_class));
        self.slots.set(slot, entry);
        out
    }

    /// Installs a decode performed by the slow path (warming).
    #[inline]
    pub(crate) fn install(&mut self, addr: SegAddr, raw: Word, instr: Instr) {
        let key = icache_key(addr);
        self.slots
            .set(icache_slot(key), ICacheEntry::new(key, raw.raw(), instr));
    }
}

/// Per-machine fast-path working state.
#[derive(Clone)]
pub(crate) struct FastState {
    pub(crate) icache: ICache,
    /// The segment references of the current attempt, reported only on
    /// commit.
    refs: CommitRefs,
    /// Whether the current attempt records observability events
    /// (latched from `Metrics::is_enabled` at attempt start, so the
    /// disabled-metrics hot path skips the references entirely).
    record: bool,
}

impl FastState {
    pub(crate) fn new() -> FastState {
        FastState {
            icache: ICache::new(),
            refs: CommitRefs::default(),
            record: false,
        }
    }

    /// Returns to the state [`FastState::new`] builds, keeping the
    /// table: the cache emptied, its counters zeroed (image restore).
    pub(crate) fn reset(&mut self) {
        self.icache.slots.clear();
        self.icache.hits = 0;
        self.icache.misses = 0;
        self.refs.clear();
        self.record = false;
    }
}

/// The fast path's [`PairPort`]: pure probes and peeks, tallying the
/// counted reads and SDW lookups the reference path would make for the
/// commit to charge. An `Err` bails.
struct Probe {
    reads: u64,
    lookups: u64,
}

impl PairPort for Probe {
    type Error = ();
    const LIMIT: () = ();

    #[inline(always)]
    fn read_pair(
        &mut self,
        m: &mut Machine,
        addr: SegAddr,
        ring: Ring,
    ) -> Result<(Word, Word, Ring), ()> {
        let (tr, phys) = (&m.tr, &m.phys);
        let hit0 = tr
            .fast_probe(phys, addr, ring, AccessMode::Read)
            .ok_or(())?;
        let second = SegAddr::new(addr.segno, addr.wordno.wrapping_add(1));
        // The probe's per-page bound test is exactly the SDW bound
        // check the slow path applies to the pair's second word.
        let hit1 = tr
            .fast_probe(phys, second, ring, AccessMode::Read)
            .ok_or(())?;
        let w0 = m.fast_peek(hit0.abs).ok_or(())?;
        let w1 = m.fast_peek(hit1.abs).ok_or(())?;
        self.reads += hit0.ptw_reads + hit1.ptw_reads + 2;
        self.lookups += 1;
        m.fast_access(addr.segno, AccessMode::Read);
        Ok((w0, w1, hit0.r1))
    }
}

impl Machine {
    /// Attempts one whole instruction on the fast path. `Some(())`
    /// means the instruction committed (with all side effects, charges
    /// and telemetry applied); `None` means *nothing* was mutated and
    /// the caller must run the slow path.
    pub(crate) fn try_execute_fast(&mut self) -> Option<()> {
        let at0 = self.ipr;
        let iaddr = at0.addr;
        // Fig. 4 fetch verdict in one probe. A native-handled segment's
        // entry carries the slow-fetch bit and fails this probe, so the
        // intercept in `execute_one` is never bypassed.
        let fetch = self
            .tr
            .fast_probe(&self.phys, iaddr, at0.ring, AccessMode::Execute)?;
        let iword = self.fast_peek(fetch.abs)?;
        // The cache also answers eligibility: the privileged group and
        // DRL (and, below, SPRI) keep their reference implementation,
        // so a lookup on one of those bails here.
        let (instr, use_class) = self.fast.icache.lookup_or_decode(iaddr, iword)?;

        // Counted reads and SDW lookups the slow path would have made.
        let mut port = Probe {
            reads: fetch.ptw_reads + 1,
            lookups: 1,
        };
        self.fast.record = self.obs.metrics.is_enabled();
        if self.fast.record {
            self.fast.refs.clear();
        }
        self.fast_access(iaddr.segno, AccessMode::Execute);

        if use_class == OperandUse::None {
            // Nop or Neg (Drl bailed above, Rett/Halt are privileged):
            // no address, and neither can fault.
            self.fast_commit(at0, instr, use_class, &port, None);
            self.exec_no_operand(instr).expect("NOP/NEG cannot fault");
            return Some(());
        }
        // Formed at this one call site so that the walk inlines and its
        // result stays in registers. Returned through memory, the address
        // can be reloaded wider than it was stored, which defeats store
        // forwarding on every step.
        let ea = self.walk_ea(&mut port, &instr, iaddr.segno).ok()?;
        // Only the read and address-only groups take a literal; every
        // other class faults on one, on the slow path.
        let literal_ok = matches!(use_class, OperandUse::Read | OperandUse::AddressOnly);
        if ea.immediate.is_some() && !literal_ok {
            return None;
        }
        match use_class {
            OperandUse::Read => {
                let value = match ea.immediate {
                    Some(lit) => lit,
                    None => self.fast_operand(&mut port, &ea, use_class)?.1,
                };
                self.fast_commit(at0, instr, use_class, &port, ea.event(at0.ring));
                self.exec_read_op(instr, value)
                    .expect("read-group ops cannot fault");
                Some(())
            }
            OperandUse::Write => {
                let (abs, _) = self.fast_operand(&mut port, &ea, use_class)?;
                let value = self.write_value(instr);
                self.fast_commit(at0, instr, use_class, &port, ea.event(at0.ring));
                self.phys.write(abs, value).expect("peek-verified address");
                Some(())
            }
            OperandUse::ReadWrite => {
                let (abs, v) = self.fast_operand(&mut port, &ea, use_class)?;
                let v = v.wrapping_add(Word::new(1));
                self.fast_commit(at0, instr, use_class, &port, ea.event(at0.ring));
                self.phys.write(abs, v).expect("peek-verified address");
                self.set_indicators(v);
                Some(())
            }
            OperandUse::Pointer => {
                // EAP: no operand reference, no validation.
                self.fast_commit(at0, instr, use_class, &port, ea.event(at0.ring));
                self.prs[instr.xreg as usize] = PtrReg::new(ea.tpr.ring, ea.tpr.addr);
                Some(())
            }
            OperandUse::Transfer => {
                let taken = self.transfer_taken(instr.opcode);
                if taken {
                    // Fig. 7 advance check: one SDW lookup, no operand
                    // reference.
                    if !self.tr.fast_probe_transfer(ea.tpr.addr, ea.tpr.ring) {
                        return None;
                    }
                    port.lookups += 1;
                    self.fast_access(ea.tpr.addr.segno, AccessMode::Execute);
                }
                self.fast_commit(at0, instr, use_class, &port, ea.event(at0.ring));
                if taken {
                    self.ipr.addr = ea.tpr.addr;
                }
                Some(())
            }
            OperandUse::AddressOnly => {
                let count = u64::from(ea.tpr.addr.wordno.value());
                self.fast_commit(at0, instr, use_class, &port, ea.event(at0.ring));
                self.exec_address_only(instr, count);
                Some(())
            }
            OperandUse::Call | OperandUse::Return => {
                self.fast_call_return(at0, instr, use_class, port, ea)
            }
            // The SPRI double store stays on the reference path.
            OperandUse::WritePair => None,
            OperandUse::None => unreachable!("committed above"),
        }
    }

    /// The operand reference of a Read, Write or AOS (`use_class`)
    /// commit at `ea`, which names memory: its probe, a peek of the
    /// word, and its counted reads, SDW lookup and heatmap event.
    /// Returns the word's absolute address and value.
    #[inline(always)]
    fn fast_operand(
        &mut self,
        port: &mut Probe,
        ea: &EffAddr,
        use_class: OperandUse,
    ) -> Option<(AbsAddr, Word)> {
        let (tr, phys, addr, ring) = (&self.tr, &self.phys, ea.tpr.addr, ea.tpr.ring);
        let hit = match use_class {
            OperandUse::Write => tr.fast_probe(phys, addr, ring, AccessMode::Write)?,
            // AOS: both capabilities, one resolve with write intent.
            OperandUse::ReadWrite => tr.fast_probe_rw(phys, addr, ring)?,
            _ => tr.fast_probe(phys, addr, ring, AccessMode::Read)?,
        };
        // A store reads nothing: it makes no counted read and may
        // overwrite a poisoned word, and its peek only proves that the
        // committed write cannot fault.
        let value = if use_class == OperandUse::Write {
            self.phys.peek(hit.abs).ok()?
        } else {
            port.reads += 1;
            self.fast_peek(hit.abs)?
        };
        port.reads += hit.ptw_reads;
        port.lookups += 1;
        let heat = match use_class {
            OperandUse::Write | OperandUse::ReadWrite => AccessMode::Write,
            _ => AccessMode::Read,
        };
        self.fast_access(addr.segno, heat);
        Some((hit.abs, value))
    }

    /// Peeks the word at `abs` for the fast path to consume. Peeks are
    /// poison-blind, so a poisoned word bails to the slow path, whose
    /// counted read raises the parity-error trap at the identical
    /// instruction.
    #[inline(always)]
    fn fast_peek(&self, abs: AbsAddr) -> Option<Word> {
        if self.phys.is_poisoned(abs) {
            return None;
        }
        self.phys.peek(abs).ok()
    }

    /// Notes a reference to `segno` for the access heatmap, reported
    /// only if the attempt commits.
    #[inline(always)]
    fn fast_access(&mut self, segno: SegNo, mode: AccessMode) {
        if self.fast.record {
            self.fast.refs.push(segno, mode);
        }
    }

    /// CALL and RETURN (Figs. 8–9) to `ea` on the target's resident
    /// SDW: the reference path's check and apply step, with the
    /// descriptor read by a pure peek instead of a counted lookup. A
    /// non-resident target or a refused crossing bails with nothing
    /// mutated. Kept out of line so the arms above compile as they
    /// would without it.
    #[inline(never)]
    fn fast_call_return(
        &mut self,
        at0: Ipr,
        instr: Instr,
        use_class: OperandUse,
        port: Probe,
        ea: EffAddr,
    ) -> Option<()> {
        let iseg = at0.addr.segno;
        let sdw = self.tr.fast_sdw(ea.tpr.addr.segno)?;
        let decision = self.check_call_return(use_class, &sdw, ea.tpr, iseg).ok()?;
        // The target lookup hits the associative memory without a
        // lookaside translation, and it costs no counted read.
        self.tr.fast_commit_sdw_hit();
        self.fast_access(ea.tpr.addr.segno, AccessMode::Execute);
        self.fast_commit(at0, instr, use_class, &port, ea.event(at0.ring));
        self.last_use = Some(use_class);
        self.apply_call_return(ea.tpr.addr, decision);
        Some(())
    }

    /// Commits an attempt: charges the counted reads, credits the cache
    /// statistics with the lookaside translations, mirrors the slow
    /// path's trace and metrics events, and advances the instruction
    /// counter (transfers, CALL and RETURN overwrite it after).
    fn fast_commit(
        &mut self,
        at0: Ipr,
        instr: Instr,
        use_class: OperandUse,
        port: &Probe,
        ea_event: Option<(u32, bool)>,
    ) {
        self.phys.charge_reads(port.reads);
        self.tr.fast_commit_hits(port.lookups);
        self.stats.fast_steps += 1;
        // `last_use` stays `None`: its only consumer attributes cycle
        // costs to the CALL/RETURN histograms, and those two classes
        // set it themselves.
        self.obs
            .fast_instruction(at0, instr, use_class, &self.fast.refs, ea_event);
        self.ipr.addr = SegAddr::new(at0.addr.segno, at0.addr.wordno.wrapping_add(1));
    }
}

#[cfg(test)]
mod props;
