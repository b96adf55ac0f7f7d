//! The storage of the fast-path caches: a fixed 1 024-slot
//! direct-mapped array that costs what its machine has filled.
//!
//! The paper's descriptor associative memory is emptied by a DBR load
//! and holds a handful of entries; the simulator's two fast-path caches
//! ([`crate::fastpath::RingTlb`] and the instruction cache in
//! `ring-cpu`) are the same kind of small, mostly empty table, 1 024
//! slots of which a machine fills a few dozen. [`SlotTable`] keeps the
//! hit path of a flat array — a probe reads one slot through a constant
//! mask — and makes everything else walk only the filled slots:
//!
//! - **A list of filled slots.** Each table records, once, every slot
//!   it has filled. Clearing, retaining and cloning walk that list, not
//!   the array.
//! - **A per-thread stock of clean arrays.** A dropped table empties
//!   its filled slots and hands its array to a small [`Stock`] kept by
//!   the thread, at most [`STOCK_DEPTH`] per entry type. Building or
//!   cloning a table takes an array from the stock and allocates
//!   (writing all 1 024 empty slots) only when the stock is empty, so a
//!   thread that builds machine after machine writes each array once.
//!   The stock holds buffers of any type: the copy-on-write pages of
//!   [`crate::phys`] are recycled through one as well.
//!
//! A table handed out is always all-empty: a stale entry would let one
//! machine hit another machine's translation, and would make a fleet's
//! results depend on which thread ran which member. Debug builds assert
//! it on every hand-out.

use core::cell::RefCell;
use std::thread::LocalKey;

/// Number of direct-mapped slots in every table.
pub const SLOTS: usize = 1024;

/// Clean arrays a thread keeps per entry type.
pub const STOCK_DEPTH: usize = 4;

/// An entry of a [`SlotTable`]: a flat value with an empty sentinel.
pub trait Slot: Copy + 'static {
    /// The value of an empty slot.
    const EMPTY: Self;

    /// True for the empty sentinel.
    fn is_empty(&self) -> bool;

    /// This thread's stock of clean arrays for this entry type, declared
    /// by each implementation as
    /// `thread_local!(static STOCK: Stock<Clean<Self>> = const { Stock::new() })`.
    fn stock() -> &'static LocalKey<Stock<Clean<Self>>>;
}

/// A clean array and the (empty) filled-slot list that goes with it.
pub type Clean<E> = (Box<[E; SLOTS]>, Vec<u16>);

/// A thread's stock of recycled buffers of one type, declared with
/// `thread_local!`: a new owner takes a buffer from it instead of
/// allocating, and a dropped owner hands its buffer back, up to a
/// bound. Whoever takes a buffer gets it as it was handed back, so the
/// owner that hands it back (a slot table) or the one that takes it
/// (a copy-on-write page) must clean it.
pub struct Stock<T>(RefCell<Vec<T>>);

impl<T> Stock<T> {
    /// An empty stock.
    pub const fn new() -> Stock<T> {
        Stock(RefCell::new(Vec::new()))
    }

    /// Buffers held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.borrow().len()
    }
}

impl<T: 'static> Stock<T> {
    /// A buffer from this thread's stock `key`, if it holds one (none
    /// while the thread is being torn down).
    pub fn take(key: &'static LocalKey<Stock<T>>) -> Option<T> {
        key.try_with(|stock| stock.0.try_borrow_mut().ok()?.pop())
            .ok()
            .flatten()
    }

    /// Hands `item` to this thread's stock `key`, unless the stock holds
    /// `depth` buffers already or is torn down (thread exit), in which
    /// case `item` is dropped. Never panics.
    pub fn give(key: &'static LocalKey<Stock<T>>, item: T, depth: usize) {
        let _ = key.try_with(|stock| {
            if let Ok(mut stock) = stock.0.try_borrow_mut() {
                if stock.len() < depth {
                    stock.push(item);
                }
            }
        });
    }
}

impl<T> Default for Stock<T> {
    fn default() -> Self {
        Stock::new()
    }
}

/// A 1 024-slot direct-mapped array of `E` with the list of its filled
/// slots (see the module docs).
pub struct SlotTable<E: Slot> {
    /// Fixed-size boxed array (not a `Vec`): indices are masked to the
    /// table size, so indexing compiles without a bounds check. `None`
    /// only while a dropped table hands its array to the stock.
    slots: Option<Box<[E; SLOTS]>>,
    /// Every non-empty slot, once each.
    filled: Vec<u16>,
}

impl<E: Slot> SlotTable<E> {
    /// An all-empty table, from this thread's stock when it has one.
    pub fn new() -> SlotTable<E> {
        let (slots, filled) = Stock::take(E::stock()).unwrap_or_else(|| {
            // Built directly on the heap: `Box::new([..; SLOTS])` would
            // build the array on the stack first and then copy it.
            let slots = match vec![E::EMPTY; SLOTS].into_boxed_slice().try_into() {
                Ok(slots) => slots,
                Err(_) => unreachable!("the vector holds exactly SLOTS entries"),
            };
            (slots, Vec::new())
        });
        debug_assert!(
            filled.is_empty() && slots.iter().all(E::is_empty),
            "a table handed out holds an entry"
        );
        SlotTable {
            slots: Some(slots),
            filled,
        }
    }

    #[inline(always)]
    fn array(&self) -> &[E; SLOTS] {
        self.slots.as_deref().expect("a live table holds its array")
    }

    #[inline(always)]
    fn array_mut(&mut self) -> &mut [E; SLOTS] {
        self.slots
            .as_deref_mut()
            .expect("a live table holds its array")
    }

    /// The entry in slot `index` (masked to the table size).
    #[inline(always)]
    pub fn get(&self, index: usize) -> &E {
        &self.array()[index & (SLOTS - 1)]
    }

    /// Stores the non-empty `entry` in slot `index` (masked to the table
    /// size), replacing whatever the slot held.
    #[inline]
    pub fn set(&mut self, index: usize, entry: E) {
        debug_assert!(!entry.is_empty(), "set stores an entry, not a hole");
        let index = index & (SLOTS - 1);
        let slot = &mut self.array_mut()[index];
        let was_empty = slot.is_empty();
        *slot = entry;
        if was_empty {
            self.filled.push(index as u16);
        }
    }

    /// Empties every filled slot whose entry `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        let Some(slots) = self.slots.as_deref_mut() else {
            return;
        };
        self.filled.retain(|&i| {
            let slot = &mut slots[usize::from(i)];
            let kept = keep(slot);
            if !kept {
                *slot = E::EMPTY;
            }
            kept
        });
    }

    /// Empties every filled slot.
    pub fn clear(&mut self) {
        if let Some(slots) = self.slots.as_deref_mut() {
            for &i in &self.filled {
                slots[usize::from(i)] = E::EMPTY;
            }
        }
        self.filled.clear();
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.filled.len()
    }

    /// True when no slot is filled.
    pub fn is_empty(&self) -> bool {
        self.filled.is_empty()
    }
}

impl<E: Slot> Default for SlotTable<E> {
    fn default() -> Self {
        SlotTable::new()
    }
}

impl<E: Slot> Clone for SlotTable<E> {
    /// A clean table with this one's filled slots copied in.
    fn clone(&self) -> Self {
        let mut copy = SlotTable::new();
        let (from, to) = (self.array(), copy.array_mut());
        for &i in &self.filled {
            to[usize::from(i)] = from[usize::from(i)];
        }
        copy.filled.extend_from_slice(&self.filled);
        copy
    }
}

impl<E: Slot> Drop for SlotTable<E> {
    /// Empties the filled slots and hands the array to this thread's
    /// stock, unless the stock is full or already torn down (thread
    /// exit), in which case the array is freed. Never panics.
    fn drop(&mut self) {
        self.clear();
        let Some(slots) = self.slots.take() else {
            return;
        };
        let clean = (slots, core::mem::take(&mut self.filled));
        Stock::give(E::stock(), clean, STOCK_DEPTH);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Entry(u32);

    impl Slot for Entry {
        const EMPTY: Entry = Entry(u32::MAX);

        fn is_empty(&self) -> bool {
            self.0 == u32::MAX
        }

        fn stock() -> &'static LocalKey<Stock<Clean<Entry>>> {
            thread_local!(static STOCK: Stock<Clean<Entry>> = const { Stock::new() });
            &STOCK
        }
    }

    fn stocked() -> usize {
        Entry::stock().with(Stock::len)
    }

    #[test]
    fn set_records_each_slot_once_and_masks_the_index() {
        let mut t = SlotTable::<Entry>::new();
        t.set(3, Entry(1));
        t.set(3, Entry(2));
        t.set(SLOTS + 5, Entry(7));
        assert_eq!(t.len(), 2);
        assert_eq!(*t.get(3), Entry(2));
        assert_eq!(*t.get(5), Entry(7));
        assert!(t.get(4).is_empty());
    }

    #[test]
    fn retain_and_clear_empty_only_what_they_drop() {
        let mut t = SlotTable::<Entry>::new();
        for i in 0..10 {
            t.set(i * 7, Entry(i as u32));
        }
        t.retain(|c| c.0 % 2 == 0);
        assert_eq!(t.len(), 5);
        assert!(t.get(7).is_empty());
        assert_eq!(*t.get(14), Entry(2));
        t.clear();
        assert!(t.is_empty());
        assert!((0..SLOTS).all(|i| t.get(i).is_empty()));
    }

    #[test]
    fn a_dropped_table_is_handed_out_clean_and_the_stock_is_bounded() {
        let before = stocked();
        let mut t = SlotTable::<Entry>::new();
        t.set(9, Entry(9));
        let copy = t.clone();
        assert_eq!(*copy.get(9), Entry(9));
        assert_eq!(copy.len(), 1);
        drop(t);
        drop(copy);
        assert_eq!(stocked(), (before + 2).min(STOCK_DEPTH));
        let fresh = SlotTable::<Entry>::new();
        assert!(fresh.is_empty());
        assert!(fresh.get(9).is_empty());
        let many: Vec<_> = (0..2 * STOCK_DEPTH)
            .map(|_| SlotTable::<Entry>::new())
            .collect();
        drop(many);
        assert_eq!(stocked(), STOCK_DEPTH);
    }
}
