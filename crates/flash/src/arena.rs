//! Arena storage for materialised flash blocks.
//!
//! [`BlockArena`] packs every materialised block of a [`crate::FlashArray`]
//! into three contiguous buffers — page states, per-block metadata, and the
//! slot → block-id table — plus a hash index for id → slot lookup. Compared
//! with the former `HashMap<u64, Block>` (one heap allocation per block,
//! SipHash per access) this buys:
//!
//! * **O(1) flat addressing** on the program/read hot path: one cheap
//!   deterministic-hash lookup to find the slot, then direct slice
//!   indexing into the page buffer;
//! * **memcpy-grade capture**: cloning an arena is three `Vec` copies plus
//!   the index, not thousands of separate block allocations;
//! * **copy-on-write cloning**: a frozen arena behind an `Arc` serves as
//!   the shared base image of many trial devices, each of which
//!   materialises only the blocks it actually touches into a private
//!   overlay arena (see `FlashArray`).
//!
//! Slot order is **materialisation order** and is part of the determinism
//! contract: `FlashArray::scan` iterates blocks in slot order, and FTL
//! full-scan recovery draws RNG words per scanned page, so two arrays that
//! must behave identically must also have materialised their blocks in the
//! same order. A base-plus-overlay array therefore scans base slots first
//! (overlay content substituted where a block was copied up) and then
//! overlay-only slots — exactly the order a cold-built array would have
//! produced by touching the same blocks in the same sequence.

use pfault_sim::DetHashMap;

use crate::block::{BlockMeta, PageState};

/// Contiguous storage for materialised blocks.
///
/// Blocks occupy slots in materialisation order; slot `s` owns metadata
/// `meta[s]` and pages `pages[s*ppb .. (s+1)*ppb]`.
#[derive(Debug, Clone)]
pub struct BlockArena {
    ppb: usize,
    pages: Vec<PageState>,
    meta: Vec<BlockMeta>,
    ids: Vec<u64>,
    index: DetHashMap<u64, u32>,
}

impl BlockArena {
    /// Creates an empty arena for blocks of `pages_per_block` pages.
    pub fn new(pages_per_block: u64) -> Self {
        BlockArena {
            ppb: pages_per_block as usize,
            pages: Vec::new(),
            meta: Vec::new(),
            ids: Vec::new(),
            index: DetHashMap::default(),
        }
    }

    /// Pages per block.
    pub fn pages_per_block(&self) -> usize {
        self.ppb
    }

    /// Number of materialised blocks.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether no block has materialised.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Slot holding block `id`, if materialised.
    #[inline]
    pub fn slot_of(&self, id: u64) -> Option<usize> {
        self.index.get(&id).map(|&s| s as usize)
    }

    /// Block id occupying `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn id_at(&self, slot: usize) -> u64 {
        self.ids[slot]
    }

    /// Metadata of the block in `slot`.
    #[inline]
    pub fn meta(&self, slot: usize) -> &BlockMeta {
        &self.meta[slot]
    }

    /// Mutable metadata of the block in `slot`.
    #[inline]
    pub fn meta_mut(&mut self, slot: usize) -> &mut BlockMeta {
        &mut self.meta[slot]
    }

    /// Page states of the block in `slot`.
    #[inline]
    pub fn pages(&self, slot: usize) -> &[PageState] {
        &self.pages[slot * self.ppb..(slot + 1) * self.ppb]
    }

    /// Split mutable borrow of the block in `slot`: metadata plus pages.
    #[inline]
    pub fn block_mut(&mut self, slot: usize) -> (&mut BlockMeta, &mut [PageState]) {
        (
            &mut self.meta[slot],
            &mut self.pages[slot * self.ppb..(slot + 1) * self.ppb],
        )
    }

    /// Materialises a fresh erased block carrying `wear` prior erase
    /// cycles. Returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already materialised.
    pub fn push_erased(&mut self, id: u64, wear: u32) -> usize {
        self.push_block(id, BlockMeta::erased_with_wear(wear), None)
    }

    /// Materialises a copy of an existing block (copy-on-write
    /// promotion from a base image). Returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already materialised or `src_pages` has the wrong
    /// length.
    pub fn push_copy(&mut self, id: u64, meta: BlockMeta, src_pages: &[PageState]) -> usize {
        assert_eq!(src_pages.len(), self.ppb, "page count mismatch");
        self.push_block(id, meta, Some(src_pages))
    }

    fn push_block(&mut self, id: u64, meta: BlockMeta, src_pages: Option<&[PageState]>) -> usize {
        let slot = self.meta.len();
        let prev = self.index.insert(id, slot as u32);
        assert!(prev.is_none(), "block {id} materialised twice");
        self.meta.push(meta);
        self.ids.push(id);
        match src_pages {
            Some(src) => self.pages.extend_from_slice(src),
            None => self
                .pages
                .resize(self.pages.len() + self.ppb, PageState::Erased),
        }
        slot
    }

    /// Iterates `(id, meta, pages)` in slot (materialisation) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &BlockMeta, &[PageState])> + '_ {
        (0..self.len()).map(move |s| (self.ids[s], &self.meta[s], self.pages(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{program_page, BlockState, PageData};
    use crate::oob::Oob;
    use pfault_sim::Lba;

    #[test]
    fn slots_follow_materialisation_order() {
        let mut a = BlockArena::new(4);
        assert!(a.is_empty());
        a.push_erased(9, 0);
        a.push_erased(2, 5);
        a.push_erased(7, 0);
        assert_eq!(a.len(), 3);
        let ids: Vec<u64> = a.iter().map(|(id, ..)| id).collect();
        assert_eq!(ids, vec![9, 2, 7]);
        assert_eq!(a.slot_of(2), Some(1));
        assert_eq!(a.slot_of(3), None);
        assert_eq!(a.meta(1).erase_count, 5);
        assert_eq!(a.id_at(2), 7);
    }

    #[test]
    fn block_mut_addresses_the_right_pages() {
        let mut a = BlockArena::new(2);
        a.push_erased(0, 0);
        a.push_erased(1, 0);
        let (meta, pages) = a.block_mut(1);
        program_page(
            meta,
            pages,
            1,
            0,
            PageData::from_tag(7),
            Oob::user(Lba::new(1), 1),
        )
        .unwrap();
        // Block 0 untouched, block 1 carries the program.
        assert!(matches!(a.pages(0)[0], PageState::Erased));
        assert!(matches!(a.pages(1)[0], PageState::Programmed { .. }));
        assert_eq!(a.meta(1).next_page, 1);
        assert_eq!(a.meta(0).next_page, 0);
    }

    #[test]
    fn push_copy_duplicates_content() {
        let mut src = BlockArena::new(2);
        src.push_erased(4, 1);
        let (meta, pages) = src.block_mut(0);
        program_page(
            meta,
            pages,
            4,
            0,
            PageData::from_tag(3),
            Oob::user(Lba::new(0), 1),
        )
        .unwrap();

        let mut dst = BlockArena::new(2);
        let slot = dst.push_copy(4, *src.meta(0), src.pages(0));
        assert_eq!(dst.meta(slot), src.meta(0));
        assert_eq!(dst.pages(slot), src.pages(0));
        // Mutating the copy leaves the source untouched.
        dst.meta_mut(slot).state = BlockState::NeedsErase;
        assert_eq!(src.meta(0).state, BlockState::Open);
    }

    #[test]
    #[should_panic(expected = "materialised twice")]
    fn double_materialisation_panics() {
        let mut a = BlockArena::new(1);
        a.push_erased(3, 0);
        a.push_erased(3, 0);
    }
}
