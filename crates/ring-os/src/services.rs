//! Supervisor services: the bodies behind the gates.
//!
//! Each service is an ordinary function over `(&mut Machine, &mut
//! OsState, ...)`; the gate dispatchers in [`crate::gates`] unmarshal
//! arguments (through validated references) and call them. Services
//! charge simulated cycles for the work a compiled supervisor would do,
//! so the benchmarks account software cost as well as hardware cost.

use ring_core::access::Fault;
use ring_core::addr::{SegAddr, SegNo};
use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::io::{Direction, IoSystem};
use ring_cpu::machine::Machine;

use crate::acl::{AclEntry, Modes};
use crate::conventions::segs;
use crate::fs::{Entry, FsError};
use crate::state::OsState;

/// Service status codes returned in the A register.
pub mod status {
    /// Success.
    pub const OK: u64 = 0;
    /// Path or entry not found.
    pub const NOT_FOUND: u64 = 1;
    /// The ACL grants the caller's user no access.
    pub const NO_ACCESS: u64 = 2;
    /// No free segment numbers.
    pub const KST_FULL: u64 = 3;
    /// Malformed argument.
    pub const BAD_ARG: u64 = 4;
    /// The sole-occupant rule refused an ACL change.
    pub const SOLE_OCCUPANT: u64 = 5;
    /// I/O channel busy.
    pub const CHANNEL_BUSY: u64 = 6;
}

/// Simulated software costs, in cycles.
pub mod cost {
    /// Per character converted by the typewriter package.
    pub const CONVERT_PER_CHAR: u64 = 3;
    /// Per word copied into a supervisor buffer.
    pub const COPY_PER_WORD: u64 = 1;
    /// Per directory entry scanned during a search step.
    pub const SEARCH_PER_ENTRY: u64 = 4;
    /// Fixed bookkeeping per initiate.
    pub const INITIATE: u64 = 40;
    /// Fixed bookkeeping per terminate.
    pub const TERMINATE: u64 = 15;
    /// Fixed bookkeeping per ACL update.
    pub const SET_ACL: u64 = 25;
    /// Ring-1 stream formatting, per character.
    pub const FORMAT_PER_CHAR: u64 = 2;
    /// An internal (supervisor-to-supervisor) gate crossing, charged
    /// when a ring-1 layer invokes a ring-0 primitive.
    pub const INTERNAL_GATE_CALL: u64 = 30;
    /// Accounting update.
    pub const ACCT: u64 = 10;
}

/// Segments at most this long are loaded unpaged; longer ones are
/// paged on demand.
pub const SMALL_SEGMENT_WORDS: usize = 4096;

/// The tty output channel number.
pub const TTY_CHANNEL: u8 = 0;

/// Offset of the typewriter output buffer within `SUP_DATA`.
pub const TTY_BUF_OFFSET: u32 = 0;
/// Capacity of the typewriter output buffer, in words.
pub const TTY_BUF_WORDS: u32 = 256;

/// Converts one character to "device code" (the code-conversion step of
/// the typewriter package): sets the ninth bit.
pub fn tty_convert(c: Word) -> Word {
    Word::new((c.raw() & 0xff) | 0x100)
}

/// `initiate`: adds the segment at `path` to the current process's
/// virtual memory, returning its segment number.
///
/// The ACL of the stored segment must grant the process's user some
/// access; the SDW is built from the matching ACL entry with the
/// presence bit off, so contents are demand-loaded at the first
/// reference (segment fault).
pub fn svc_initiate(m: &mut Machine, st: &mut OsState, path: &str) -> Result<u32, u64> {
    m.charge(cost::INITIATE);
    let steps_before = st.fs.search_steps;
    let id = st.fs.resolve(path).map_err(|e| match e {
        FsError::NotFound(_) | FsError::WrongKind(_) | FsError::NotADirectory(_) => {
            status::NOT_FOUND
        }
        _ => status::BAD_ARG,
    })?;
    m.charge((st.fs.search_steps - steps_before) * cost::SEARCH_PER_ENTRY);
    let user = st.current_process().user.clone();
    let Some(entry) = st.fs.segment(id).acl.lookup(&user).cloned() else {
        st.stats.acl_denials += 1;
        return Err(status::NO_ACCESS);
    };
    if !(entry.modes.read || entry.modes.write || entry.modes.execute) {
        st.stats.acl_denials += 1;
        return Err(status::NO_ACCESS);
    }
    if let Some(existing) = st.current_process().segno_of(id) {
        return Ok(existing);
    }
    let words = st.fs.segment(id).data.len().max(1) as u32;
    let proc = st.current_process_mut();
    let segno = proc.alloc_segno().ok_or(status::KST_FULL)?;
    proc.kst
        .insert(segno, crate::process::KstEntry { id, loaded: false });
    let sdw = entry
        .apply(SdwBuilder::new())
        .present(false)
        .bound_words(words)
        .build();
    m.store_descriptor(SegNo::new(segno).expect("segno"), &sdw)
        .map_err(|_| status::BAD_ARG)?;
    Ok(segno)
}

/// `terminate`: removes `segno` from the current process's virtual
/// memory.
pub fn svc_terminate(m: &mut Machine, st: &mut OsState, segno: u32) -> Result<(), u64> {
    m.charge(cost::TERMINATE);
    let proc = st.current_process_mut();
    if proc.kst.remove(&segno).is_none() {
        return Err(status::NOT_FOUND);
    }
    let dead = SdwBuilder::new().present(false).build();
    m.store_descriptor(SegNo::new(segno).expect("segno"), &dead)
        .map_err(|_| status::BAD_ARG)?;
    Ok(())
}

/// `set_acl`: installs or replaces the ACL entry for `for_user` on the
/// segment at `path`, subject to the sole-occupant rule for
/// `caller_ring`.
///
/// If the current process has the segment initiated, its SDW is
/// rebuilt immediately ("to expect the change to be immediately
/// effective").
#[allow(clippy::too_many_arguments)]
pub fn svc_set_acl(
    m: &mut Machine,
    st: &mut OsState,
    path: &str,
    for_user: &str,
    modes: Modes,
    rings: (Ring, Ring, Ring),
    gates: u32,
    caller_ring: Ring,
) -> Result<(), u64> {
    m.charge(cost::SET_ACL);
    let id = st.fs.resolve(path).map_err(|_| status::NOT_FOUND)?;
    let entry = AclEntry::new(for_user, modes, rings, gates).ok_or(status::BAD_ARG)?;
    if st.fs.segment_mut(id).acl.set(entry, caller_ring).is_err() {
        st.stats.acl_denials += 1;
        return Err(status::SOLE_OCCUPANT);
    }
    // Immediate effectiveness for the current process.
    let user = st.current_process().user.clone();
    if let Some(segno) = st.current_process().segno_of(id) {
        if let Some(e) = st.fs.segment(id).acl.lookup(&user).cloned() {
            if let Ok(old) = m.segment_descriptor(SegNo::new(segno).expect("segno")) {
                let sdw = e
                    .apply(SdwBuilder::new())
                    .addr(old.addr)
                    .present(old.present)
                    .unpaged(old.unpaged)
                    .bound(old.bound)
                    .build();
                let _ = m.store_descriptor(SegNo::new(segno).expect("segno"), &sdw);
            }
        }
    }
    Ok(())
}

/// `fs_search`: the complete in-supervisor file search of the paper's
/// Conclusions example — resolves every component of `path` inside the
/// protected supervisor.
pub fn svc_fs_search(m: &mut Machine, st: &mut OsState, path: &str) -> Result<u32, u64> {
    let before = st.fs.search_steps;
    let id = st.fs.resolve(path).map_err(|_| status::NOT_FOUND)?;
    m.charge((st.fs.search_steps - before) * cost::SEARCH_PER_ENTRY);
    Ok(id.0)
}

/// `fs_step`: one directory-search step — the small protected primitive
/// that an *unprotected* library can call repeatedly.
///
/// `dir_handle` 0 names the root; other handles are `DirId + 1`.
/// Returns the encoded next handle: directories as `(DirId + 1)`,
/// segments as `(SegmentId | SEGMENT_FLAG)`.
pub fn svc_fs_step(
    m: &mut Machine,
    st: &mut OsState,
    dir_handle: u64,
    component: &str,
) -> Result<u64, u64> {
    let dir = if dir_handle == 0 {
        st.fs.root()
    } else {
        crate::fs::DirId((dir_handle - 1) as u32)
    };
    let before = st.fs.search_steps;
    let entry = st.fs.step(dir, component).map_err(|_| status::NOT_FOUND)?;
    m.charge((st.fs.search_steps - before) * cost::SEARCH_PER_ENTRY);
    Ok(match entry {
        Entry::Dir(d) => u64::from(d.0) + 1,
        Entry::Segment(s) => u64::from(s.0) | SEGMENT_FLAG,
    })
}

/// Flag bit marking an [`svc_fs_step`] result as a segment.
pub const SEGMENT_FLAG: u64 = 1 << 30;

/// Copies `count` already-converted words from the caller's buffer into
/// the supervisor typewriter buffer and starts the output channel —
/// the *minimal* protected typewriter primitive (only the two functions
/// that genuinely need protection: touching the shared buffer and
/// executing SIO).
pub fn svc_tty_connect(
    m: &mut Machine,
    _st: &mut OsState,
    buf: PtrReg,
    count: u32,
) -> Result<(), u64> {
    if count > TTY_BUF_WORDS {
        return Err(status::BAD_ARG);
    }
    let sup = SegNo::new(segs::SUP_DATA).expect("segno");
    for i in 0..count {
        let w = m
            .read_validated(PtrReg::new(
                buf.ring,
                SegAddr::new(buf.addr.segno, buf.addr.wordno.wrapping_add(i)),
            ))
            .map_err(|_| status::NO_ACCESS)?;
        m.write_validated(
            PtrReg::new(
                Ring::R0,
                SegAddr::from_parts(segs::SUP_DATA, TTY_BUF_OFFSET + i).expect("buffer"),
            ),
            w,
        )
        .map_err(|_| status::BAD_ARG)?;
        m.charge(cost::COPY_PER_WORD);
    }
    let sdw = m.segment_descriptor(sup).map_err(|_| status::BAD_ARG)?;
    let abs = sdw.addr.wrapping_add(TTY_BUF_OFFSET);
    let (w0, w1) = IoSystem::channel_program(TTY_CHANNEL, Direction::Output, abs, count);
    m.start_io(w0, w1).map_err(|e| match e {
        Fault::Derail { .. } => status::CHANNEL_BUSY,
        _ => status::BAD_ARG,
    })
}

/// The *monolithic* typewriter package of the paper's critique: code
/// conversion, buffer copy and channel start all execute in ring 0,
/// maximising the quantity of code with maximum privilege.
pub fn svc_tty_write(
    m: &mut Machine,
    st: &mut OsState,
    buf: PtrReg,
    count: u32,
) -> Result<(), u64> {
    if count > TTY_BUF_WORDS {
        return Err(status::BAD_ARG);
    }
    // Conversion happens in ring 0, character by character, into a
    // scratch area of the supervisor data segment.
    let scratch = TTY_BUF_OFFSET + TTY_BUF_WORDS;
    for i in 0..count {
        let raw = m
            .read_validated(PtrReg::new(
                buf.ring,
                SegAddr::new(buf.addr.segno, buf.addr.wordno.wrapping_add(i)),
            ))
            .map_err(|_| status::NO_ACCESS)?;
        m.charge(cost::CONVERT_PER_CHAR);
        m.write_validated(
            PtrReg::new(
                Ring::R0,
                SegAddr::from_parts(segs::SUP_DATA, scratch + i).expect("scratch"),
            ),
            tty_convert(raw),
        )
        .map_err(|_| status::BAD_ARG)?;
    }
    let converted = PtrReg::new(
        Ring::R0,
        SegAddr::from_parts(segs::SUP_DATA, scratch).expect("scratch"),
    );
    svc_tty_connect(m, st, converted, count)
}

/// Ring-1 stream output: formatting in the outer supervisor layer, then
/// the ring-0 primitive (the internal layering of the paper's "Use of
/// Rings" section). The internal ring-1 → ring-0 crossing is charged as
/// a constant.
pub fn svc_ios_write(
    m: &mut Machine,
    st: &mut OsState,
    buf: PtrReg,
    count: u32,
) -> Result<(), u64> {
    if count > TTY_BUF_WORDS {
        return Err(status::BAD_ARG);
    }
    // Format (convert) at ring 1 into the ring-1 data segment.
    for i in 0..count {
        let raw = m
            .read_validated(PtrReg::new(
                buf.ring,
                SegAddr::new(buf.addr.segno, buf.addr.wordno.wrapping_add(i)),
            ))
            .map_err(|_| status::NO_ACCESS)?;
        m.charge(cost::FORMAT_PER_CHAR);
        m.write_validated(
            PtrReg::new(
                Ring::R1,
                SegAddr::from_parts(segs::RING1_DATA, i).expect("ring1 buffer"),
            ),
            tty_convert(raw),
        )
        .map_err(|_| status::BAD_ARG)?;
    }
    // Internal gate call to the ring-0 primitive: a real downward call
    // switches the ring of execution to 0 for the primitive's body and
    // back on return. The crossing itself is charged as a constant.
    m.charge(cost::INTERNAL_GATE_CALL);
    st.stats.gate_calls_hcs += 1;
    let converted = PtrReg::new(
        Ring::R1,
        SegAddr::from_parts(segs::RING1_DATA, 0).expect("ring1 buffer"),
    );
    let outer = m.ipr();
    m.set_ipr(ring_core::registers::Ipr::new(Ring::R0, outer.addr));
    let result = svc_tty_connect(m, st, converted, count);
    m.set_ipr(outer);
    result
}

/// Ring-1 accounting: charge `units` to the current user's account.
pub fn svc_acct_charge(m: &mut Machine, st: &mut OsState, units: i64) -> Result<(), u64> {
    m.charge(cost::ACCT);
    let user = &st.processes[st.current].user;
    match st.accounts.get_mut(user) {
        Some(balance) => *balance += units,
        None => {
            st.accounts.insert(user.clone(), units);
        }
    }
    Ok(())
}

/// Ring-1 accounting: read the current user's balance.
pub fn svc_acct_read(m: &mut Machine, st: &mut OsState) -> Result<i64, u64> {
    m.charge(cost::ACCT);
    Ok(*st.accounts.get(&st.current_process().user).unwrap_or(&0))
}
