//! Whole-machine image capture and restore.
//!
//! A [`MachineImage`] is every bit of state that can influence an
//! architectural outcome: registers, indicators, the DBR, cycle and
//! fault state, execution statistics, sparse physical memory with its
//! traffic counters, the I/O subsystem (device queues and in-flight
//! channel programs), and the SDW associative memory's replacement
//! state. The last one matters because the cache is visible through
//! cycle counts — a resident SDW absorbs the two-reference descriptor
//! fetch — so replay without it would drift from the recorded run.
//!
//! Deliberately *not* captured:
//!
//! - the machine configuration, native-procedure registry and
//!   native-state slot — a recording is replayed into a machine rebuilt
//!   from the same program and configuration (closures and their
//!   host-side state cannot be serialized; a whole `Machine` is cloned
//!   instead when that state must travel with it);
//! - the fast-path TLB and instruction cache — pure acceleration,
//!   invisible to every architectural outcome including cycles, so a
//!   restored machine simply starts them cold;
//! - the observability layer (trace, metrics, spans) — observers are
//!   re-armed by the replay harness, not part of the machine's state.
//!
//! The encoding is a flat `Vec<u64>` so the recording container
//! (`ring-trace`) can treat images as opaque words. Capture uses only
//! uncounted reads (`peek`), so taking a checkpoint never perturbs the
//! run being recorded.

use ring_core::access::{AccessMode, Fault, Violation};
use ring_core::addr::{AbsAddr, SegAddr, SegNo, WordNo};
use ring_core::registers::{Dbr, Ipr, PtrReg, NUM_PR};
use ring_core::ring::Ring;
use ring_core::sdw::Sdw;
use ring_core::word::Word;
use ring_segmem::sdw_cache::SdwCacheState;

use crate::machine::{ExecStats, Machine};

/// Identifies the image encoding (bumped on layout changes).
const MAGIC: u64 = 0x52_49_4E_47_49_4D_47; // "RINGIMG"
const VERSION: u64 = 2; // v2 appends chaos state (engine, poison, vetoes)

/// An opaque, complete snapshot of a machine's architectural state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineImage {
    words: Vec<u64>,
}

impl MachineImage {
    /// The flat word encoding (for embedding in a recording).
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Wraps a flat word encoding read back from a recording.
    pub fn from_words(words: Vec<u64>) -> MachineImage {
        MachineImage { words }
    }

    /// The encoded words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Packs a two-part address into one image word.
fn pack_addr(addr: SegAddr) -> u64 {
    (u64::from(addr.segno.value()) << 20) | u64::from(addr.wordno.value())
}

fn unpack_addr(w: u64) -> SegAddr {
    SegAddr::new(SegNo::from_bits(w >> 20), WordNo::from_bits(w & 0xF_FFFF))
}

/// Encodes a fault as `[tag, f1, f2, f3]`.
fn pack_fault(fault: &Fault) -> [u64; 4] {
    match fault {
        Fault::AccessViolation {
            mode,
            violation,
            addr,
            ring,
        } => {
            let m = match mode {
                AccessMode::Read => 0,
                AccessMode::Write => 1,
                AccessMode::Execute => 2,
            };
            let v = match violation {
                Violation::FlagOff => 0,
                Violation::OutsideBracket => 1,
                Violation::NotAGate => 2,
                Violation::AboveGateExtension => 3,
                Violation::CallRingAnomaly => 4,
                Violation::OutOfBounds => 5,
                Violation::NoSuchSegment => 6,
            };
            [0, (m << 8) | v, pack_addr(*addr), u64::from(ring.number())]
        }
        Fault::UpwardCall { target, ring } => [1, pack_addr(*target), u64::from(ring.number()), 0],
        Fault::DownwardReturn { target, ring } => {
            [2, pack_addr(*target), u64::from(ring.number()), 0]
        }
        Fault::SegmentFault { addr, class } => [3, pack_addr(*addr), u64::from(*class), 0],
        Fault::PageFault { addr } => [4, pack_addr(*addr), 0, 0],
        Fault::PrivilegedViolation { ring } => [5, u64::from(ring.number()), 0, 0],
        Fault::IllegalOpcode { opcode } => [6, u64::from(*opcode), 0, 0],
        Fault::IllegalModifier => [7, 0, 0, 0],
        Fault::IndirectLimit => [8, 0, 0, 0],
        Fault::Derail { code } => [9, u64::from(*code), 0, 0],
        Fault::TimerRunout => [10, 0, 0, 0],
        Fault::IoCompletion { channel } => [11, u64::from(*channel), 0, 0],
        Fault::PhysicalBounds { abs } => [12, u64::from(*abs), 0, 0],
        Fault::Halt => [13, 0, 0, 0],
        Fault::ParityError { abs } => [14, u64::from(*abs), 0, 0],
        Fault::IoError { channel, code } => [15, u64::from(*channel), u64::from(*code), 0],
    }
}

fn unpack_fault(f: &[u64; 4]) -> Result<Fault, String> {
    Ok(match f[0] {
        0 => {
            let mode = match f[1] >> 8 {
                0 => AccessMode::Read,
                1 => AccessMode::Write,
                2 => AccessMode::Execute,
                m => return Err(format!("bad access mode {m}")),
            };
            let violation = match f[1] & 0xFF {
                0 => Violation::FlagOff,
                1 => Violation::OutsideBracket,
                2 => Violation::NotAGate,
                3 => Violation::AboveGateExtension,
                4 => Violation::CallRingAnomaly,
                5 => Violation::OutOfBounds,
                6 => Violation::NoSuchSegment,
                v => return Err(format!("bad violation {v}")),
            };
            Fault::AccessViolation {
                mode,
                violation,
                addr: unpack_addr(f[2]),
                ring: Ring::from_bits(f[3]),
            }
        }
        1 => Fault::UpwardCall {
            target: unpack_addr(f[1]),
            ring: Ring::from_bits(f[2]),
        },
        2 => Fault::DownwardReturn {
            target: unpack_addr(f[1]),
            ring: Ring::from_bits(f[2]),
        },
        3 => Fault::SegmentFault {
            addr: unpack_addr(f[1]),
            class: f[2] as u8,
        },
        4 => Fault::PageFault {
            addr: unpack_addr(f[1]),
        },
        5 => Fault::PrivilegedViolation {
            ring: Ring::from_bits(f[1]),
        },
        6 => Fault::IllegalOpcode {
            opcode: f[1] as u16,
        },
        7 => Fault::IllegalModifier,
        8 => Fault::IndirectLimit,
        9 => Fault::Derail { code: f[1] as u32 },
        10 => Fault::TimerRunout,
        11 => Fault::IoCompletion {
            channel: f[1] as u8,
        },
        12 => Fault::PhysicalBounds { abs: f[1] as u32 },
        13 => Fault::Halt,
        14 => Fault::ParityError { abs: f[1] as u32 },
        15 => Fault::IoError {
            channel: f[1] as u8,
            code: f[2] as u32,
        },
        t => return Err(format!("bad fault tag {t}")),
    })
}

/// A cursor over the flat encoding with bounds-checked reads.
struct Reader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self) -> Result<u64, String> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or("truncated machine image")?;
        self.pos += 1;
        Ok(w)
    }

    fn take_n(&mut self, n: usize) -> Result<&'a [u64], String> {
        let end = self.pos.checked_add(n).ok_or("truncated machine image")?;
        let slice = self
            .words
            .get(self.pos..end)
            .ok_or("truncated machine image")?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads the count of a section whose items take `item_words`
    /// words each, refusing a count the remaining words cannot hold
    /// (so a hostile count never sizes an allocation).
    fn take_count(&mut self, item_words: usize) -> Result<usize, String> {
        let count =
            usize::try_from(self.take()?).map_err(|_| "oversized count in machine image")?;
        let remaining = self.words.len() - self.pos;
        match count.checked_mul(item_words) {
            Some(need) if need <= remaining => Ok(count),
            _ => Err("truncated machine image".to_string()),
        }
    }
}

impl Machine {
    /// Captures the complete architectural state as an opaque image.
    ///
    /// Read-only and uncounted: taking an image never perturbs the
    /// machine (so a recorder can checkpoint mid-run without changing
    /// the run).
    pub fn capture_image(&self) -> MachineImage {
        // The sparse memory dump is most of an image: size the buffer
        // for it, with slack for the other sections, up front.
        let nonzero = self.phys.nonzero_words();
        let mut w: Vec<u64> = Vec::with_capacity(2 * nonzero.len() + 256);
        w.push(MAGIC);
        w.push(VERSION);
        // Registers and indicators.
        w.push(self.ipr.pack().raw());
        for pr in &self.prs {
            w.push(pr.pack().raw());
        }
        w.push(self.a.raw());
        w.push(self.q.raw());
        for x in &self.x {
            w.push(u64::from(*x));
        }
        let mut flags = 0u64;
        flags |= u64::from(self.ind_zero);
        flags |= u64::from(self.ind_neg) << 1;
        flags |= u64::from(self.in_trap) << 2;
        flags |= u64::from(self.halted) << 3;
        flags |= u64::from(self.timer.is_some()) << 4;
        flags |= u64::from(self.last_fault.is_some()) << 5;
        flags |= u64::from(self.double_fault.is_some()) << 6;
        w.push(flags);
        w.push(self.timer.unwrap_or(0));
        w.push(self.cycles);
        let (d0, d1) = self.dbr.pack();
        w.push(d0.raw());
        w.push(d1.raw());
        w.extend(pack_fault(&self.last_fault.unwrap_or(Fault::Halt)));
        w.extend(pack_fault(&self.double_fault.unwrap_or(Fault::Halt)));
        // Execution statistics (part of the observable snapshot/metrics
        // surface, so replay must resume them).
        let s = &self.stats;
        w.extend([
            s.instructions,
            s.calls_same_ring,
            s.calls_downward,
            s.returns_same_ring,
            s.returns_upward,
            s.traps,
            s.upward_call_traps,
            s.downward_return_traps,
            s.native_calls,
            s.fast_steps,
        ]);
        // Physical memory: traffic counters plus sparse nonzero words.
        w.push(self.phys.read_count());
        w.push(self.phys.write_count());
        w.push(self.phys.size() as u64);
        w.push(nonzero.len() as u64);
        for (abs, word) in nonzero {
            w.push(u64::from(abs));
            w.push(word.raw());
        }
        // I/O subsystem.
        let io = self.io.export_words();
        w.push(io.len() as u64);
        w.extend(io);
        // SDW associative memory.
        let cache = self.tr.export_cache_state();
        w.push(cache.entries.len() as u64);
        w.push(cache.next_victim as u64);
        w.extend([
            cache.stats.hits,
            cache.stats.misses,
            cache.stats.flushes,
            cache.stats.invalidations,
        ]);
        for entry in &cache.entries {
            match entry {
                None => w.push(0),
                Some((segno, sdw)) => {
                    w.push(1);
                    w.push(u64::from(segno.value()));
                    let (s0, s1) = sdw.pack();
                    w.push(s0.raw());
                    w.push(s1.raw());
                }
            }
        }
        // Chaos state (v2): the injection engine, poisoned physical
        // words, and fast-path degradation vetoes. All deterministic
        // simulated state, so replay must resume them exactly.
        let engine = self.chaos.export_words();
        w.push(engine.len() as u64);
        w.extend(engine);
        let poison = self.phys.poison_export();
        w.push(poison.len() as u64);
        w.extend(poison.iter().map(|&a| u64::from(a)));
        w.push(self.phys.repaired_count());
        w.push(u64::from(self.phys.high_water()));
        let (veto_segs, veto_global) = self.tr.fast_veto_export();
        w.push(veto_segs.len() as u64);
        w.extend(veto_segs.iter().map(|&s| u64::from(s)));
        w.push(u64::from(veto_global));
        w.push(self.chaos_protect.len() as u64);
        for &(lo, hi) in &self.chaos_protect {
            w.push(u64::from(lo));
            w.push(u64::from(hi));
        }
        MachineImage { words: w }
    }

    /// Restores an image captured by [`Machine::capture_image`].
    ///
    /// The machine must have been built with the same configuration
    /// (physical memory size, SDW-cache capacity, cost model) as the
    /// one that produced the image; mismatches are reported as errors.
    /// The fast-path TLB and instruction cache restart cold, which is
    /// architecturally invisible.
    pub fn restore_image(&mut self, image: &MachineImage) -> Result<(), String> {
        let mut r = Reader {
            words: &image.words,
            pos: 0,
        };
        if r.take()? != MAGIC {
            return Err("not a machine image".to_string());
        }
        if r.take()? != VERSION {
            return Err("unsupported machine-image version".to_string());
        }
        let ipr = Ipr::unpack(Word::new(r.take()?));
        let mut prs = [PtrReg::NULL; NUM_PR];
        for pr in prs.iter_mut() {
            *pr = PtrReg::unpack(Word::new(r.take()?));
        }
        let a = Word::new(r.take()?);
        let q = Word::new(r.take()?);
        let mut x = [0u32; 8];
        for xi in x.iter_mut() {
            *xi = u32::try_from(r.take()?)
                .ok()
                .filter(|&v| v <= ring_core::addr::MAX_WORDNO)
                .ok_or("index register out of range in machine image")?;
        }
        let flags = r.take()?;
        let timer_value = r.take()?;
        let cycles = r.take()?;
        let d0 = Word::new(r.take()?);
        let d1 = Word::new(r.take()?);
        let last_fault_words: [u64; 4] = r.take_n(4)?.try_into().expect("4 words");
        let double_fault_words: [u64; 4] = r.take_n(4)?.try_into().expect("4 words");
        let stats_words = r.take_n(10)?.to_vec();
        let reads = r.take()?;
        let writes = r.take()?;
        let size = r.take()? as usize;
        if size != self.phys.size() {
            return Err(format!(
                "image has {size} physical words, machine has {}",
                self.phys.size()
            ));
        }
        let nonzero = r.take_count(2)?;
        let mut mem: Vec<(u32, Word)> = Vec::with_capacity(nonzero);
        for _ in 0..nonzero {
            let abs = r.take()? as u32;
            let word = Word::new(r.take()?);
            mem.push((abs, word));
        }
        let io_len = r.take_count(1)?;
        let io_words = r.take_n(io_len)?.to_vec();
        let cache_capacity = r.take()? as usize;
        if cache_capacity != self.tr.export_cache_state().entries.len() {
            return Err("image SDW-cache capacity mismatch".to_string());
        }
        let next_victim = r.take()? as usize;
        if next_victim >= cache_capacity.max(1) {
            return Err("SDW-cache victim out of range in machine image".to_string());
        }
        let cache_stats = ring_segmem::sdw_cache::CacheStats {
            hits: r.take()?,
            misses: r.take()?,
            flushes: r.take()?,
            invalidations: r.take()?,
        };
        let mut entries: Vec<Option<(SegNo, Sdw)>> = Vec::with_capacity(cache_capacity);
        for _ in 0..cache_capacity {
            if r.take()? == 0 {
                entries.push(None);
            } else {
                let segno = SegNo::from_bits(r.take()?);
                let s0 = Word::new(r.take()?);
                let s1 = Word::new(r.take()?);
                entries.push(Some((segno, Sdw::unpack(s0, s1))));
            }
        }
        let engine_len = r.take_count(1)?;
        let engine_words = r.take_n(engine_len)?;
        let mut engine_it = engine_words.iter().copied();
        let chaos = ring_chaos::ChaosEngine::restore_words(&mut || engine_it.next())
            .ok_or("malformed chaos-engine state in machine image")?;
        if engine_it.next().is_some() {
            return Err("trailing chaos-engine words in machine image".to_string());
        }
        let poison_len = r.take_count(1)?;
        let poison: Vec<u32> = r.take_n(poison_len)?.iter().map(|&a| a as u32).collect();
        let repaired = r.take()?;
        let high_water = r.take()? as u32;
        let veto_len = r.take_count(1)?;
        let veto_segs: Vec<u32> = r.take_n(veto_len)?.iter().map(|&s| s as u32).collect();
        let veto_global = r.take()? != 0;
        let protect_len = r.take_count(2)?;
        let mut chaos_protect = Vec::with_capacity(protect_len);
        for _ in 0..protect_len {
            let lo = r.take()? as u32;
            let hi = r.take()? as u32;
            chaos_protect.push((lo, hi));
        }
        if r.pos != image.words.len() {
            return Err("trailing data in machine image".to_string());
        }
        let last_fault = if flags & 32 != 0 {
            Some(unpack_fault(&last_fault_words)?)
        } else {
            None
        };
        let double_fault = if flags & 64 != 0 {
            Some(unpack_fault(&double_fault_words)?)
        } else {
            None
        };
        if mem.iter().any(|(abs, _)| *abs as usize >= size)
            || poison.iter().any(|&abs| abs as usize >= size)
            || high_water as usize > size
        {
            return Err("image word beyond physical memory".to_string());
        }

        // All fields decoded — apply (nothing below can fail, so a bad
        // image never leaves the machine half-restored).
        self.ipr = ipr;
        self.prs = prs;
        self.a = a;
        self.q = q;
        self.x = x;
        self.ind_zero = flags & 1 != 0;
        self.ind_neg = flags & 2 != 0;
        self.in_trap = flags & 4 != 0;
        self.halted = flags & 8 != 0;
        self.timer = (flags & 16 != 0).then_some(timer_value);
        self.last_fault = last_fault;
        self.double_fault = double_fault;
        self.cycles = cycles;
        self.dbr = Dbr::unpack(d0, d1);
        self.stats = ExecStats {
            instructions: stats_words[0],
            calls_same_ring: stats_words[1],
            calls_downward: stats_words[2],
            returns_same_ring: stats_words[3],
            returns_upward: stats_words[4],
            traps: stats_words[5],
            upward_call_traps: stats_words[6],
            downward_return_traps: stats_words[7],
            native_calls: stats_words[8],
            fast_steps: stats_words[9],
        };
        self.phys.zero_all();
        for (abs, word) in mem {
            self.phys
                .poke(AbsAddr::from_bits(u64::from(abs)), word)
                .expect("bounds pre-checked");
        }
        self.phys.restore_counters(reads, writes);
        self.phys.restore_chaos_state(&poison, repaired, high_water);
        self.chaos_protect = chaos_protect;
        self.io.restore_words(&io_words)?;
        self.chaos = chaos;
        self.tr.fast_veto_restore(&veto_segs, veto_global);
        self.tr.restore_cache_state(&SdwCacheState {
            entries,
            next_victim,
            stats: cache_stats,
        });
        self.fast = crate::fastpath::FastState::new();
        self.last_use = None;
        self.extra_cycles = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_codec_round_trips_every_variant() {
        let addr = SegAddr::from_parts(100, 0o1234).unwrap();
        let faults = [
            Fault::AccessViolation {
                mode: AccessMode::Write,
                violation: Violation::OutsideBracket,
                addr,
                ring: Ring::R5,
            },
            Fault::UpwardCall {
                target: addr,
                ring: Ring::R2,
            },
            Fault::DownwardReturn {
                target: addr,
                ring: Ring::R6,
            },
            Fault::SegmentFault { addr, class: 3 },
            Fault::PageFault { addr },
            Fault::PrivilegedViolation { ring: Ring::R4 },
            Fault::IllegalOpcode { opcode: 0o777 },
            Fault::IllegalModifier,
            Fault::IndirectLimit,
            Fault::Derail { code: 0o777 },
            Fault::TimerRunout,
            Fault::IoCompletion { channel: 7 },
            Fault::PhysicalBounds { abs: 0xFF_FFFF },
            Fault::Halt,
            Fault::ParityError { abs: 0o1234 },
            Fault::IoError {
                channel: 2,
                code: 0o1,
            },
        ];
        for f in faults {
            assert_eq!(unpack_fault(&pack_fault(&f)).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn addr_codec_covers_extremes() {
        for (s, w) in [(0, 0), (100, 0o1234), (0x7FFF, 0x3FFFF)] {
            let addr = SegAddr::from_parts(s, w).unwrap();
            assert_eq!(unpack_addr(pack_addr(addr)), addr);
        }
    }
}
