//! I/O channels and devices.
//!
//! The privileged SIO instruction connects a channel to a two-word
//! channel program: word 0 carries the absolute buffer address, the
//! direction, and the channel number; word 1 the word count. The
//! channel then transfers data between physical memory and its device
//! asynchronously — by absolute address, bypassing segmentation, which
//! is exactly why SIO must be privileged — and raises an I/O-completion
//! trap when done.
//!
//! One device type is modelled: a typewriter (terminal) holding a word
//! queue in each direction, enough to reproduce the paper's typewriter
//! I/O package example (experiment T4).
//!
//! # Channel program layout
//!
//! ```text
//! word 0: ABS[0..24]  DIR[24] (0 = memory→device, 1 = device→memory)
//!         CHANNEL[25..28]
//! word 1: COUNT[0..18]
//! ```

use std::collections::VecDeque;

use ring_core::access::Fault;
use ring_core::addr::AbsAddr;
use ring_core::word::Word;
use ring_segmem::phys::PhysMem;

/// Number of I/O channels.
pub const NUM_CHANNELS: usize = 8;

/// Simulated channel word-transfer time, in cycles per word.
pub const CYCLES_PER_WORD: u64 = 2;

/// Fixed channel start-up latency in cycles.
pub const CHANNEL_LATENCY: u64 = 8;

/// Cycles past a transfer's completion time before the channel watchdog
/// concludes the completion interrupt was lost and raises an I/O-error
/// trap instead. Generous relative to [`CYCLES_PER_WORD`] so a watchdog
/// can never fire while its completion is still legitimately pending.
pub const WATCHDOG_MARGIN: u64 = 64;

/// I/O-error code reported when a channel watchdog expires (the
/// completion interrupt was lost).
pub const IO_ERROR_WATCHDOG: u32 = 0o1;

/// Direction of a channel transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Memory to device (output).
    Output,
    /// Device to memory (input).
    Input,
}

#[derive(Clone, Debug)]
struct Operation {
    abs: AbsAddr,
    count: u32,
    direction: Direction,
    done_at: u64,
}

/// A typewriter-like device: word queues in both directions.
#[derive(Clone, Debug, Default)]
pub struct TtyDevice {
    /// Words the channel has delivered to the device (printed output).
    pub output: Vec<Word>,
    /// Words queued for the program to read (keyboard input).
    pub input: VecDeque<Word>,
}

impl TtyDevice {
    /// Queues the bytes of `s` as one word per character (low 9 bits).
    pub fn type_line(&mut self, s: &str) {
        for b in s.bytes() {
            self.input.push_back(Word::new(u64::from(b)));
        }
    }

    /// Renders the printed output as a string (low 8 bits per word).
    pub fn printed(&self) -> String {
        self.output
            .iter()
            .map(|w| (w.raw() & 0xff) as u8 as char)
            .collect()
    }
}

/// The I/O subsystem: channels plus their devices.
#[derive(Clone, Debug)]
pub struct IoSystem {
    devices: Vec<TtyDevice>,
    inflight: Vec<Option<Operation>>,
    /// Number of occupied `inflight` slots, so the between-instructions
    /// completion poll is O(1) on the (overwhelmingly common) idle case.
    busy_count: u32,
    /// Chaos arm: the next completion performs its transfer but drops
    /// the interrupt, leaving a watchdog in its place.
    lose_next: bool,
    /// Per-channel watchdog deadlines, set when a completion interrupt
    /// was lost. Expiry surfaces as an I/O-error trap so a waiter is
    /// never stranded forever.
    watchdogs: Vec<Option<u64>>,
}

impl IoSystem {
    /// A system with [`NUM_CHANNELS`] idle channels.
    pub fn new() -> IoSystem {
        IoSystem {
            devices: (0..NUM_CHANNELS).map(|_| TtyDevice::default()).collect(),
            inflight: vec![None; NUM_CHANNELS],
            busy_count: 0,
            lose_next: false,
            watchdogs: vec![None; NUM_CHANNELS],
        }
    }

    /// The device on `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= NUM_CHANNELS`.
    pub fn device(&self, channel: usize) -> &TtyDevice {
        &self.devices[channel]
    }

    /// Mutable access to the device on `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= NUM_CHANNELS`.
    pub fn device_mut(&mut self, channel: usize) -> &mut TtyDevice {
        &mut self.devices[channel]
    }

    /// True if `channel` has a transfer in flight.
    pub fn busy(&self, channel: usize) -> bool {
        self.inflight[channel].is_some()
    }

    /// The earliest completion time among in-flight transfers, if any.
    /// The kernel's idler uses this to advance simulated time straight
    /// to the next I/O interrupt when every process is blocked.
    pub fn next_done_at(&self) -> Option<u64> {
        self.inflight
            .iter()
            .filter_map(|op| op.as_ref().map(|o| o.done_at))
            .chain(self.watchdogs.iter().flatten().copied())
            .min()
    }

    /// The completion time of the transfer in flight on `channel`, if
    /// one is pending. Lets the kernel's idler wake exactly the
    /// processes whose channel finishes by the time it advances to.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= NUM_CHANNELS`.
    pub fn channel_done_at(&self, channel: usize) -> Option<u64> {
        match (
            self.inflight[channel].as_ref().map(|o| o.done_at),
            self.watchdogs[channel],
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Chaos arm: the next matured completion performs its data
    /// transfer but drops the completion interrupt, leaving only the
    /// channel watchdog to report the loss.
    pub fn lose_next_completion(&mut self) {
        self.lose_next = true;
    }

    /// True while a loss is armed but has not yet claimed a completion.
    pub fn completion_loss_armed(&self) -> bool {
        self.lose_next
    }

    /// Number of channels with an expired-or-pending watchdog.
    pub fn pending_watchdogs(&self) -> u32 {
        self.watchdogs.iter().flatten().count() as u32
    }

    /// If a channel's watchdog has expired by `now`, clears it and
    /// returns the channel (the machine then raises an I/O-error trap
    /// with the watchdog code). At most one expiry per call.
    pub fn take_watchdog_expiry(&mut self, now: u64) -> Option<u8> {
        let idx = self
            .watchdogs
            .iter()
            .position(|d| matches!(d, Some(t) if *t <= now))?;
        self.watchdogs[idx] = None;
        Some(idx as u8)
    }

    /// Starts a channel from the two SIO operand words at simulated
    /// time `now`. A connect to a busy channel is refused with a derail
    /// fault (code 0o77), standing in for the hardware's channel-busy
    /// indicator.
    pub(crate) fn start(&mut self, w0: Word, w1: Word, now: u64) -> Result<(), Fault> {
        let abs = AbsAddr::from_bits(w0.field(0, 24));
        let direction = if w0.bit(24) {
            Direction::Input
        } else {
            Direction::Output
        };
        let channel = w0.field(25, 3) as usize;
        let count = w1.field(0, 18) as u32;
        if self.inflight[channel].is_some() {
            return Err(Fault::Derail { code: 0o77 });
        }
        let done_at = now + CHANNEL_LATENCY + u64::from(count) * CYCLES_PER_WORD;
        self.inflight[channel] = Some(Operation {
            abs,
            count,
            direction,
            done_at,
        });
        self.busy_count += 1;
        Ok(())
    }

    /// If a channel has completed by time `now`, performs its transfer
    /// against `phys` and returns the channel number (the machine then
    /// raises the I/O-completion trap). At most one completion is
    /// delivered per call.
    #[inline]
    pub(crate) fn take_completion(&mut self, now: u64, phys: &mut PhysMem) -> Option<u8> {
        if self.busy_count == 0 {
            return None;
        }
        self.take_completion_slow(now, phys)
    }

    fn take_completion_slow(&mut self, now: u64, phys: &mut PhysMem) -> Option<u8> {
        loop {
            let idx = self
                .inflight
                .iter()
                .position(|op| matches!(op, Some(o) if o.done_at <= now))?;
            let op = self.inflight[idx].take()?;
            self.busy_count -= 1;
            let dev = &mut self.devices[idx];
            match op.direction {
                Direction::Output => {
                    for i in 0..op.count {
                        let w = phys.read(op.abs.wrapping_add(i)).unwrap_or(Word::ZERO);
                        dev.output.push(w);
                    }
                }
                Direction::Input => {
                    for i in 0..op.count {
                        let w = dev.input.pop_front().unwrap_or(Word::ZERO);
                        let _ = phys.write(op.abs.wrapping_add(i), w);
                    }
                }
            }
            if self.lose_next {
                // The data moved; only the interrupt vanishes. Arm the
                // watchdog and keep looking — another matured channel
                // may still deliver normally this cycle.
                self.lose_next = false;
                self.watchdogs[idx] = Some(op.done_at + WATCHDOG_MARGIN);
                continue;
            }
            return Some(idx as u8);
        }
    }

    /// Serializes the complete I/O state — device queues and in-flight
    /// channel programs — as flat words, for machine-image capture.
    pub fn export_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (dev, op) in self.devices.iter().zip(self.inflight.iter()) {
            out.push(dev.output.len() as u64);
            out.extend(dev.output.iter().map(|w| w.raw()));
            out.push(dev.input.len() as u64);
            out.extend(dev.input.iter().map(|w| w.raw()));
            match op {
                None => out.push(0),
                Some(o) => {
                    out.push(1);
                    out.push(u64::from(o.abs.value()));
                    out.push(u64::from(o.count));
                    out.push(match o.direction {
                        Direction::Output => 0,
                        Direction::Input => 1,
                    });
                    out.push(o.done_at);
                }
            }
        }
        out.push(u64::from(self.lose_next));
        for dog in &self.watchdogs {
            match dog {
                None => out.push(0),
                Some(t) => {
                    out.push(1);
                    out.push(*t);
                }
            }
        }
        out
    }

    /// Restores state captured by [`IoSystem::export_words`].
    pub fn restore_words(&mut self, words: &[u64]) -> Result<(), String> {
        let mut pos = 0usize;
        let mut next = |n: usize| -> Result<&[u64], String> {
            let slice = pos
                .checked_add(n)
                .and_then(|end| words.get(pos..end))
                .ok_or_else(|| "truncated I/O image".to_string())?;
            pos += n;
            Ok(slice)
        };
        let mut devices = Vec::with_capacity(NUM_CHANNELS);
        let mut inflight = Vec::with_capacity(NUM_CHANNELS);
        let mut busy_count = 0u32;
        for _ in 0..NUM_CHANNELS {
            let out_len = next(1)?[0] as usize;
            let output = next(out_len)?.iter().map(|&w| Word::new(w)).collect();
            let in_len = next(1)?[0] as usize;
            let input = next(in_len)?.iter().map(|&w| Word::new(w)).collect();
            devices.push(TtyDevice { output, input });
            if next(1)?[0] == 0 {
                inflight.push(None);
            } else {
                let fields = next(4)?;
                inflight.push(Some(Operation {
                    abs: AbsAddr::from_bits(fields[0]),
                    count: fields[1] as u32,
                    direction: if fields[2] == 0 {
                        Direction::Output
                    } else {
                        Direction::Input
                    },
                    done_at: fields[3],
                }));
                busy_count += 1;
            }
        }
        let lose_next = next(1)?[0] != 0;
        let mut watchdogs = Vec::with_capacity(NUM_CHANNELS);
        for _ in 0..NUM_CHANNELS {
            if next(1)?[0] == 0 {
                watchdogs.push(None);
            } else {
                watchdogs.push(Some(next(1)?[0]));
            }
        }
        if pos != words.len() {
            return Err("trailing data in I/O image".to_string());
        }
        self.devices = devices;
        self.inflight = inflight;
        self.busy_count = busy_count;
        self.lose_next = lose_next;
        self.watchdogs = watchdogs;
        Ok(())
    }

    /// Builds the SIO operand pair for a transfer.
    pub fn channel_program(
        channel: u8,
        direction: Direction,
        abs: AbsAddr,
        count: u32,
    ) -> (Word, Word) {
        let w0 = Word::ZERO
            .with_field(0, 24, u64::from(abs.value()))
            .with_bit(24, direction == Direction::Input)
            .with_field(25, 3, u64::from(channel));
        let w1 = Word::ZERO.with_field(0, 18, u64::from(count));
        (w0, w1)
    }
}

impl Default for IoSystem {
    fn default() -> Self {
        IoSystem::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_program_round_trip_fields() {
        let (w0, w1) =
            IoSystem::channel_program(3, Direction::Input, AbsAddr::new(0o1234).unwrap(), 17);
        assert_eq!(w0.field(0, 24), 0o1234);
        assert!(w0.bit(24));
        assert_eq!(w0.field(25, 3), 3);
        assert_eq!(w1.field(0, 18), 17);
    }

    #[test]
    fn output_transfer_moves_memory_to_device() {
        let mut io = IoSystem::new();
        let mut phys = PhysMem::new(64);
        for i in 0..4 {
            phys.poke(
                AbsAddr::new(i).unwrap(),
                Word::new(u64::from(b'a' + i as u8)),
            )
            .unwrap();
        }
        let (w0, w1) = IoSystem::channel_program(1, Direction::Output, AbsAddr::new(0).unwrap(), 4);
        io.start(w0, w1, 0).unwrap();
        assert!(io.busy(1));
        // Not yet complete.
        assert_eq!(io.take_completion(0, &mut phys), None);
        let done = CHANNEL_LATENCY + 4 * CYCLES_PER_WORD;
        assert_eq!(io.take_completion(done, &mut phys), Some(1));
        assert!(!io.busy(1));
        assert_eq!(io.device(1).printed(), "abcd");
    }

    #[test]
    fn input_transfer_moves_device_to_memory() {
        let mut io = IoSystem::new();
        let mut phys = PhysMem::new(64);
        io.device_mut(2).type_line("hi");
        let (w0, w1) = IoSystem::channel_program(2, Direction::Input, AbsAddr::new(8).unwrap(), 2);
        io.start(w0, w1, 100).unwrap();
        let done = 100 + CHANNEL_LATENCY + 2 * CYCLES_PER_WORD;
        assert_eq!(io.take_completion(done, &mut phys), Some(2));
        assert_eq!(
            phys.peek(AbsAddr::new(8).unwrap()).unwrap().raw(),
            u64::from(b'h')
        );
        assert_eq!(
            phys.peek(AbsAddr::new(9).unwrap()).unwrap().raw(),
            u64::from(b'i')
        );
    }

    #[test]
    fn busy_channel_refuses_connect() {
        let mut io = IoSystem::new();
        let (w0, w1) = IoSystem::channel_program(0, Direction::Output, AbsAddr::new(0).unwrap(), 1);
        io.start(w0, w1, 0).unwrap();
        assert!(matches!(
            io.start(w0, w1, 0),
            Err(Fault::Derail { code: 0o77 })
        ));
    }

    #[test]
    fn export_restore_round_trips_io_state() {
        let mut io = IoSystem::new();
        io.device_mut(2).type_line("queued");
        io.device_mut(5).output.push(Word::new(0o123));
        let (w0, w1) = IoSystem::channel_program(3, Direction::Input, AbsAddr::new(64).unwrap(), 9);
        io.start(w0, w1, 1000).unwrap();

        let words = io.export_words();
        let mut fresh = IoSystem::new();
        fresh.restore_words(&words).unwrap();
        assert!(fresh.busy(3));
        assert!(!fresh.busy(0));
        assert_eq!(fresh.device(5).output, io.device(5).output);
        assert_eq!(fresh.device(2).input, io.device(2).input);
        // The restored in-flight operation completes identically.
        let mut p1 = PhysMem::new(128);
        let mut p2 = PhysMem::new(128);
        let done = 1000 + CHANNEL_LATENCY + 9 * CYCLES_PER_WORD;
        assert_eq!(
            io.take_completion(done, &mut p1),
            fresh.take_completion(done, &mut p2)
        );
        for i in 0..128 {
            let a = AbsAddr::new(i).unwrap();
            assert_eq!(p1.peek(a).unwrap(), p2.peek(a).unwrap());
        }
        assert!(fresh.restore_words(&words[..words.len() - 1]).is_err());
    }

    #[test]
    fn lost_completion_transfers_data_but_trips_watchdog() {
        let mut io = IoSystem::new();
        let mut phys = PhysMem::new(64);
        io.device_mut(2).type_line("x");
        let (w0, w1) = IoSystem::channel_program(2, Direction::Input, AbsAddr::new(0).unwrap(), 1);
        io.start(w0, w1, 0).unwrap();
        io.lose_next_completion();
        let done = CHANNEL_LATENCY + CYCLES_PER_WORD;
        // The completion interrupt is swallowed...
        assert_eq!(io.take_completion(done, &mut phys), None);
        assert!(!io.busy(2));
        // ...but the data still moved,
        assert_eq!(
            phys.peek(AbsAddr::new(0).unwrap()).unwrap().raw(),
            u64::from(b'x')
        );
        // and the watchdog stands in for the missing interrupt.
        assert_eq!(io.pending_watchdogs(), 1);
        assert_eq!(io.channel_done_at(2), Some(done + WATCHDOG_MARGIN));
        assert_eq!(io.next_done_at(), Some(done + WATCHDOG_MARGIN));
        assert_eq!(io.take_watchdog_expiry(done + WATCHDOG_MARGIN - 1), None);
        assert_eq!(io.take_watchdog_expiry(done + WATCHDOG_MARGIN), Some(2));
        assert_eq!(io.pending_watchdogs(), 0);
        assert_eq!(io.take_watchdog_expiry(u64::MAX), None);
    }

    #[test]
    fn watchdog_state_round_trips_through_export() {
        let mut io = IoSystem::new();
        let mut phys = PhysMem::new(64);
        let (w0, w1) = IoSystem::channel_program(1, Direction::Output, AbsAddr::new(0).unwrap(), 1);
        io.start(w0, w1, 0).unwrap();
        io.lose_next_completion();
        assert_eq!(io.take_completion(u64::MAX >> 1, &mut phys), None);
        io.lose_next_completion(); // still armed, nothing in flight

        let words = io.export_words();
        let mut fresh = IoSystem::new();
        fresh.restore_words(&words).unwrap();
        assert!(fresh.completion_loss_armed());
        assert_eq!(fresh.pending_watchdogs(), 1);
        assert_eq!(fresh.channel_done_at(1), io.channel_done_at(1));
    }

    #[test]
    fn input_underrun_pads_with_zeros() {
        let mut io = IoSystem::new();
        let mut phys = PhysMem::new(16);
        phys.poke(AbsAddr::new(0).unwrap(), Word::new(0o777))
            .unwrap();
        let (w0, w1) = IoSystem::channel_program(0, Direction::Input, AbsAddr::new(0).unwrap(), 1);
        io.start(w0, w1, 0).unwrap();
        let done = CHANNEL_LATENCY + CYCLES_PER_WORD;
        io.take_completion(done, &mut phys).unwrap();
        assert_eq!(phys.peek(AbsAddr::new(0).unwrap()).unwrap(), Word::ZERO);
    }
}
