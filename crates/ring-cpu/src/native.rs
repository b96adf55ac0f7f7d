//! Native procedure segments.
//!
//! The Multics supervisor was written in a high-level language and
//! compiled to machine code; simulating it instruction-by-instruction
//! would add nothing to the reproduction of the *protection* hardware.
//! Instead, a segment may be registered as **native**: when instruction
//! fetch lands in it — and only after the ordinary Fig. 4/Fig. 8
//! validation has allowed the transfer, so gates, brackets and the
//! CALL/RETURN ring switching all apply unchanged — the simulator
//! invokes a Rust handler with the entry word number.
//!
//! Handlers are required (by convention, enforced in review and by the
//! argument-validation tests) to make every reference on behalf of
//! their caller through the machine's validated accessors
//! ([`crate::machine::Machine::read_validated`] and friends), which
//! apply exactly the per-reference hardware checks compiled code would
//! incur; and to account for their work with
//! [`crate::machine::Machine::charge`].

use std::any::Any;
use std::sync::Arc;

use ring_core::access::Fault;
use ring_core::addr::{SegNo, WordNo};
use ring_core::registers::PtrReg;

use crate::machine::Machine;

/// What a native procedure asks the processor to do when it finishes.
#[derive(Clone, Copy, Debug)]
pub enum NativeAction {
    /// Perform a hardware RETURN through `via` (normally the return
    /// pointer the caller left in PR2): effective ring
    /// `max(IPR.RING, via.RING)`, with all Fig. 9 consequences.
    Return {
        /// The return pointer.
        via: PtrReg,
    },
    /// Restore the trap-time processor state and resume the disrupted
    /// instruction (what a RETT instruction does); used by trap
    /// handlers.
    Resume,
    /// Stop the processor.
    Halt,
}

/// Signature of a native procedure body.
///
/// Bodies are shared, immutable code: a cloned machine shares them with
/// its source. State a body mutates lives in the machine's native-state
/// slot ([`Machine::with_native_state`]), never in its captures, so a
/// clone can never perturb the machine it was cloned from.
pub type NativeFn = dyn Fn(&mut Machine, WordNo) -> Result<NativeAction, Fault> + Send + Sync;

/// Registry mapping segment numbers to native procedure bodies.
///
/// A system registers a handful of native segments, and the reference
/// path asks about one on every instruction fetch, so the registry is a
/// short vector scanned in place: no hashing, and a body is cloned out
/// only when it is about to run.
#[derive(Clone, Default)]
pub struct NativeRegistry {
    handlers: Vec<(SegNo, Arc<NativeFn>)>,
}

impl NativeRegistry {
    /// An empty registry.
    pub fn new() -> NativeRegistry {
        NativeRegistry::default()
    }

    /// Registers `handler` as the body of segment `segno`.
    pub fn register(&mut self, segno: SegNo, handler: Arc<NativeFn>) {
        match self.handlers.iter_mut().find(|(s, _)| *s == segno) {
            Some((_, body)) => *body = handler,
            None => self.handlers.push((segno, handler)),
        }
    }

    /// Looks up the handler for `segno`.
    pub fn handler(&self, segno: SegNo) -> Option<Arc<NativeFn>> {
        self.handlers
            .iter()
            .find(|(s, _)| *s == segno)
            .map(|(_, body)| Arc::clone(body))
    }

    /// True if `segno` is a native segment.
    #[inline]
    pub fn is_native(&self, segno: SegNo) -> bool {
        self.handlers.iter().any(|(s, _)| *s == segno)
    }
}

/// A value that can live in the native-state slot: any `Clone + Send`
/// type, cloned through the box when the machine is.
trait SlotValue: Any + Send {
    fn clone_box(&self) -> Box<dyn SlotValue>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + Clone + Send> SlotValue for T {
    fn clone_box(&self) -> Box<dyn SlotValue> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The machine's one slot for the state its native bodies mutate (a
/// supervisor's tables, a baseline's gate table). Empty until world
/// building fills it.
#[derive(Default)]
pub(crate) struct NativeState(Option<Box<dyn SlotValue>>);

impl Clone for NativeState {
    fn clone(&self) -> Self {
        NativeState(self.0.as_ref().map(|b| (**b).clone_box()))
    }
}

impl Machine {
    /// Registers a native procedure body for segment `segno`. The
    /// segment must still be given an ordinary SDW (brackets, gates,
    /// flags): all validation happens against that SDW before the body
    /// is ever invoked.
    pub fn register_native<F>(&mut self, segno: SegNo, handler: F)
    where
        F: Fn(&mut Machine, WordNo) -> Result<NativeAction, Fault> + Send + Sync + 'static,
    {
        self.natives.register(segno, Arc::new(handler));
        // Fetches from this segment must now reach the slow path's
        // intercept; drop any fast-path translations that predate the
        // registration (new installs will carry the slow-fetch mark).
        self.tr.invalidate_tlb_segment(segno);
    }

    /// Fills the native-state slot with `state`, replacing whatever it
    /// held. World building does this once, before the bodies that use
    /// the state can run; the value is then cloned with the machine.
    pub fn set_native_state<T: Any + Clone + Send>(&mut self, state: T) {
        self.native_state = NativeState(Some(Box::new(state)));
    }

    /// The native-state slot's value, if it holds a `T`.
    pub fn native_state<T: Any>(&self) -> Option<&T> {
        self.native_state.0.as_ref()?.as_any().downcast_ref()
    }

    /// Mutable access to the native-state slot's value, if it holds a
    /// `T`.
    pub fn native_state_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.native_state.0.as_mut()?.as_any_mut().downcast_mut()
    }

    /// Lends the native-state slot's `T` to `f` alongside the machine
    /// itself, for the length of the call: the way a native body reaches
    /// its state while it also drives the processor. `None` when the
    /// slot is empty, holds another type, or is already lent out (a
    /// body re-entered from inside `f`).
    pub fn with_native_state<T: Any, R>(
        &mut self,
        f: impl FnOnce(&mut Machine, &mut T) -> R,
    ) -> Option<R> {
        let mut lent = self.native_state.0.take()?;
        let out = lent
            .as_any_mut()
            .downcast_mut::<T>()
            .map(|state| f(self, state));
        self.native_state.0 = Some(lent);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip() {
        let mut r = NativeRegistry::new();
        let seg = SegNo::new(7).unwrap();
        assert!(!r.is_native(seg));
        r.register(seg, Arc::new(|_, _| Ok(NativeAction::Halt)));
        assert!(r.is_native(seg));
        assert!(r.handler(seg).is_some());
        assert!(r.handler(SegNo::new(8).unwrap()).is_none());
    }

    #[test]
    fn machine_is_clone_and_send() {
        fn check<T: Clone + Send>() {}
        check::<Machine>();
    }

    #[test]
    fn native_state_is_lent_and_cloned_with_the_machine() {
        let mut m = Machine::new(1024, crate::machine::MachineConfig::default());
        assert!(m.native_state::<u64>().is_none());
        assert_eq!(m.with_native_state(|_, n: &mut u64| *n), None);
        m.set_native_state(5u64);
        assert!(m.native_state::<u32>().is_none(), "typed slot");
        let seen = m.with_native_state(|m, n: &mut u64| {
            // The slot is out on loan for the call: a re-entrant
            // borrow finds it empty.
            assert!(m.native_state::<u64>().is_none());
            *n += 1;
            *n
        });
        assert_eq!(seen, Some(6));
        let mut c = m.clone();
        *c.native_state_mut::<u64>().unwrap() = 100;
        assert_eq!(m.native_state::<u64>(), Some(&6), "clone owns its state");
        assert_eq!(c.native_state::<u64>(), Some(&100));
        assert_eq!(m.with_native_state(|_, n: &mut u32| *n), None);
        assert_eq!(m.native_state::<u64>(), Some(&6), "wrong type leaves it");
    }
}
