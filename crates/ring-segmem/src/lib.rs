//! Segmented virtual-memory substrate for the ring-protection simulator.
//!
//! This crate supplies everything "below" the access-control logic of
//! `ring-core`: bounded physical memory ([`phys`]), descriptor-segment
//! walking with an SDW associative memory ([`translate`], [`sdw_cache`]),
//! transparent paging ([`paging`]), and a bump allocator for laying out
//! simulated worlds ([`layout`]).
//!
//! The division of labour mirrors the hardware: translation locates the
//! SDW and the word; `ring-core::validate` decides whether the reference
//! is permitted; the processor in `ring-cpu` sequences the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backing;
pub mod fastpath;
pub mod frames;
pub mod layout;
pub mod paging;
pub mod phys;
pub mod sdw_cache;
pub mod slot_table;
pub mod translate;

pub use backing::{BackingStore, PageKey};
pub use fastpath::{FastHit, RingTlb, TlbStats};
pub use frames::{FrameOwner, FramePool};
pub use layout::PhysAllocator;
pub use paging::{Ptw, PAGE_WORDS};
pub use phys::{PhysMem, COW_PAGE_WORDS};
pub use sdw_cache::{CacheStats, SdwCache, SdwCacheState};
pub use translate::Translator;
