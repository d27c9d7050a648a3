//! Block and page state tracking.
//!
//! A block owns an array of page states and enforces the NAND programming
//! constraints the FTL must respect: pages program in ascending order, only
//! onto erased pages, and erases are whole-block. Each block also tracks its
//! program/erase cycle count against a wear budget.
//!
//! Two representations share the constraint logic in this module:
//!
//! * [`Block`] — a standalone block owning its page vector, used by
//!   small-scale tests and examples;
//! * [`BlockMeta`] plus a page slice — the arena representation
//!   ([`crate::arena::BlockArena`]) the device-scale [`crate::FlashArray`]
//!   stores, where all materialised blocks' pages live in one contiguous
//!   buffer so snapshot capture and copy-on-write cloning are cheap.

use serde::{Deserialize, Serialize};

use pfault_sim::checksum::mix64;

use crate::error::FlashError;
use crate::oob::Oob;

/// Compact descriptor of a page's data content.
///
/// At device scale the simulator does not store 4 KiB buffers; a page's
/// content is identified by a `tag` (what was written) and a `checksum`
/// over it. Corruption replaces the checksum with a garble derived from the
/// original, so checksum comparison — the paper's detection mechanism —
/// behaves exactly as with real buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageData {
    /// Identity of the written content.
    pub tag: u64,
    /// Checksum of the content.
    pub checksum: u64,
}

impl PageData {
    /// Creates page data from a content tag, deriving the checksum.
    pub fn from_tag(tag: u64) -> Self {
        PageData {
            tag,
            checksum: mix64(tag, 0xDA7A_C0DE),
        }
    }

    /// Returns a garbled copy, as left behind by an interrupted program.
    /// The garble is derived deterministically from a noise word so that
    /// campaigns replay exactly.
    pub fn garbled(self, noise: u64) -> PageData {
        PageData {
            tag: self.tag,
            checksum: mix64(self.checksum, noise | 1),
        }
    }

    /// Whether this data still matches its original checksum.
    ///
    /// This is the gate the fault-space sweep oracle
    /// (`pfault_platform::sweep`) uses to separate NAND-physics damage
    /// from protocol violations: a garbled or torn page fails
    /// `is_intact` and is therefore judged as *data loss*, while only
    /// intact content that was never issued for its LBA counts as
    /// *phantom data*.
    pub fn is_intact(&self) -> bool {
        self.checksum == mix64(self.tag, 0xDA7A_C0DE)
    }
}

/// State of one flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageState {
    /// Erased, ready to program.
    Erased,
    /// Programmed. `raw_ber` is the page's raw bit-error count, which the
    /// ECC stage compares against its correction strength at read time.
    Programmed {
        /// Content descriptor.
        data: PageData,
        /// Spare-area metadata.
        oob: Oob,
        /// Raw bit errors accumulated (interruption, disturbance).
        raw_ber: u32,
    },
}

/// Lifecycle state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockState {
    /// Erased or partially programmed; accepts programs at `next_page`.
    Open,
    /// An erase was interrupted by power loss: contents indeterminate, must
    /// be erased again before any program.
    NeedsErase,
}

/// Per-block bookkeeping, separated from the page contents so the arena
/// can store all blocks' metadata in one contiguous buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockMeta {
    /// Next page the block expects to program.
    pub next_page: u64,
    /// Program/erase cycles absorbed.
    pub erase_count: u32,
    /// Reads since the last erase (read-disturb stress).
    pub reads_since_erase: u64,
    /// Lifecycle state.
    pub state: BlockState,
}

impl BlockMeta {
    /// Metadata of a freshly erased block that has already absorbed
    /// `erase_count` program/erase cycles (end-of-life studies).
    pub fn erased_with_wear(erase_count: u32) -> Self {
        BlockMeta {
            next_page: 0,
            erase_count,
            reads_since_erase: 0,
            state: BlockState::Open,
        }
    }
}

/// Programs the next-in-order page of a block given as `(meta, pages)`.
/// Shared by [`Block::program`] and the arena-backed array.
pub(crate) fn program_page(
    meta: &mut BlockMeta,
    pages: &mut [PageState],
    block_index: u64,
    page: u64,
    data: PageData,
    oob: Oob,
) -> Result<(), FlashError> {
    if meta.state == BlockState::NeedsErase {
        return Err(FlashError::ProgramToDirtyPage {
            block: block_index,
            page,
        });
    }
    if page != meta.next_page {
        return Err(FlashError::ProgramOutOfOrder {
            block: block_index,
            attempted: page,
            expected: meta.next_page,
        });
    }
    if !matches!(pages[page as usize], PageState::Erased) {
        return Err(FlashError::ProgramToDirtyPage {
            block: block_index,
            page,
        });
    }
    pages[page as usize] = PageState::Programmed {
        data,
        oob,
        raw_ber: 0,
    };
    meta.next_page += 1;
    Ok(())
}

/// Erases a whole block given as `(meta, pages)`. Shared by
/// [`Block::erase`] and the arena-backed array.
pub(crate) fn erase_block(
    meta: &mut BlockMeta,
    pages: &mut [PageState],
    block_index: u64,
    wear_budget: u32,
) -> Result<(), FlashError> {
    if meta.erase_count >= wear_budget {
        return Err(FlashError::BlockWornOut { block: block_index });
    }
    for p in pages.iter_mut() {
        *p = PageState::Erased;
    }
    meta.next_page = 0;
    meta.erase_count += 1;
    meta.reads_since_erase = 0;
    meta.state = BlockState::Open;
    Ok(())
}

/// Iterates a page slice's programmed pages as
/// `(page_index, data, oob, raw_ber)`.
pub(crate) fn programmed_pages(
    pages: &[PageState],
) -> impl Iterator<Item = (u64, PageData, Oob, u32)> + '_ {
    pages.iter().enumerate().filter_map(|(i, p)| match p {
        PageState::Programmed { data, oob, raw_ber } => Some((i as u64, *data, *oob, *raw_ber)),
        PageState::Erased => None,
    })
}

/// One standalone flash block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    meta: BlockMeta,
    pages: Vec<PageState>,
}

impl Block {
    /// Default program/erase cycle budget (MLC-order).
    pub const DEFAULT_WEAR_BUDGET: u32 = 3_000;

    /// Creates an erased block of `pages_per_block` pages.
    pub fn new(pages_per_block: u64) -> Self {
        Block::with_wear(pages_per_block, 0)
    }

    /// Creates an erased block that has already absorbed `erase_count`
    /// program/erase cycles (end-of-life studies).
    pub fn with_wear(pages_per_block: u64, erase_count: u32) -> Self {
        Block {
            meta: BlockMeta::erased_with_wear(erase_count),
            pages: vec![PageState::Erased; pages_per_block as usize],
        }
    }

    /// State of page `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page(&self, page: u64) -> &PageState {
        &self.pages[page as usize]
    }

    /// Mutable state of page `page` (used by the array's corruption
    /// injection).
    #[allow(dead_code)]
    pub(crate) fn page_mut(&mut self, page: u64) -> &mut PageState {
        &mut self.pages[page as usize]
    }

    /// Next page this block expects to program.
    pub fn next_page(&self) -> u64 {
        self.meta.next_page
    }

    /// How many erases this block has absorbed.
    pub fn erase_count(&self) -> u32 {
        self.meta.erase_count
    }

    /// Reads of this block since its last erase (read-disturb stress).
    pub fn reads_since_erase(&self) -> u64 {
        self.meta.reads_since_erase
    }

    /// Registers one read against the block's disturb counter.
    #[allow(dead_code)]
    pub(crate) fn note_read(&mut self) {
        self.meta.reads_since_erase += 1;
    }

    /// Lifecycle state.
    pub fn state(&self) -> BlockState {
        self.meta.state
    }

    /// Whether every page is programmed.
    pub fn is_full(&self) -> bool {
        self.meta.next_page as usize >= self.pages.len()
    }

    /// Programs the next-in-order page.
    ///
    /// # Errors
    ///
    /// * [`FlashError::ProgramOutOfOrder`] if `page` is not the block's
    ///   next expected page;
    /// * [`FlashError::ProgramToDirtyPage`] if the block needs an erase
    ///   (interrupted erase) or the target is already programmed.
    pub fn program(
        &mut self,
        block_index: u64,
        page: u64,
        data: PageData,
        oob: Oob,
    ) -> Result<(), FlashError> {
        program_page(
            &mut self.meta,
            &mut self.pages,
            block_index,
            page,
            data,
            oob,
        )
    }

    /// Erases the whole block.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BlockWornOut`] once the wear budget is spent.
    pub fn erase(&mut self, block_index: u64, wear_budget: u32) -> Result<(), FlashError> {
        erase_block(&mut self.meta, &mut self.pages, block_index, wear_budget)
    }

    /// Marks the block as requiring an erase (interrupted erase).
    #[allow(dead_code)]
    pub(crate) fn mark_needs_erase(&mut self) {
        self.meta.state = BlockState::NeedsErase;
    }

    /// Iterates over programmed pages as `(page_index, data, oob, raw_ber)`.
    pub fn programmed_pages(&self) -> impl Iterator<Item = (u64, PageData, Oob, u32)> + '_ {
        programmed_pages(&self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_sim::Lba;

    fn data(tag: u64) -> PageData {
        PageData::from_tag(tag)
    }

    #[test]
    fn page_data_integrity_round_trip() {
        let d = data(99);
        assert!(d.is_intact());
        let g = d.garbled(12345);
        assert!(!g.is_intact());
        assert_eq!(g.tag, d.tag); // identity preserved, content broken
        assert_ne!(g.checksum, d.checksum);
    }

    #[test]
    fn garbling_is_absorbing_for_any_noise_word() {
        // The sweep oracle's phantom-data check trusts that no sequence
        // of corruptions can land back on an intact checksum — in
        // particular noise 0 must still garble (the `noise | 1` floor).
        for tag in [0u64, 7, u64::MAX] {
            let mut d = data(tag);
            for noise in [0u64, 1, 2, 0xFFFF_FFFF_FFFF_FFFF] {
                d = d.garbled(noise);
                assert!(!d.is_intact(), "tag {tag} noise {noise}");
                assert_eq!(d.tag, tag, "garbling never changes identity");
            }
        }
    }

    #[test]
    fn in_order_programming_succeeds() {
        let mut b = Block::new(4);
        for p in 0..4 {
            b.program(0, p, data(p), Oob::user(Lba::new(p), p)).unwrap();
        }
        assert!(b.is_full());
        assert_eq!(b.programmed_pages().count(), 4);
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut b = Block::new(4);
        let err = b
            .program(7, 2, data(1), Oob::user(Lba::new(0), 0))
            .unwrap_err();
        assert_eq!(
            err,
            FlashError::ProgramOutOfOrder {
                block: 7,
                attempted: 2,
                expected: 0
            }
        );
    }

    #[test]
    fn erase_resets_and_counts() {
        let mut b = Block::new(2);
        b.program(0, 0, data(1), Oob::user(Lba::new(0), 0)).unwrap();
        b.erase(0, 10).unwrap();
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.next_page(), 0);
        assert!(matches!(b.page(0), PageState::Erased));
        // Can program page 0 again after erase.
        b.program(0, 0, data(2), Oob::user(Lba::new(0), 1)).unwrap();
    }

    #[test]
    fn wear_budget_enforced() {
        let mut b = Block::new(1);
        b.erase(3, 2).unwrap();
        b.erase(3, 2).unwrap();
        assert_eq!(
            b.erase(3, 2).unwrap_err(),
            FlashError::BlockWornOut { block: 3 }
        );
    }

    #[test]
    fn needs_erase_blocks_programs_until_erased() {
        let mut b = Block::new(2);
        b.mark_needs_erase();
        assert_eq!(b.state(), BlockState::NeedsErase);
        assert!(matches!(
            b.program(0, 0, data(1), Oob::user(Lba::new(0), 0)),
            Err(FlashError::ProgramToDirtyPage { .. })
        ));
        b.erase(0, 10).unwrap();
        assert_eq!(b.state(), BlockState::Open);
        b.program(0, 0, data(1), Oob::user(Lba::new(0), 0)).unwrap();
    }

    #[test]
    fn programmed_pages_reports_oob() {
        let mut b = Block::new(3);
        b.program(0, 0, data(5), Oob::user(Lba::new(50), 1))
            .unwrap();
        b.program(0, 1, data(6), Oob::journal(2, 2)).unwrap();
        let pages: Vec<_> = b.programmed_pages().collect();
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].2.lba(), Some(Lba::new(50)));
        assert_eq!(pages[1].2.lba(), None);
    }
}
