//! The volatile logical-to-physical mapping table.
//!
//! This is the RAM-resident structure the paper's §IV-D worries about: it
//! exists only while the controller has power. [`MappingTable`] also tracks
//! per-block valid-page counts so garbage collection can pick victims.
//!
//! # Frozen stripes
//!
//! The table is a vector of fixed 64 Ki-sector LBA stripes,
//! grown only as far as the highest stripe written. A stripe is owned by
//! its table until [`MappingTable::freeze`], which moves it behind an
//! `Arc`: cloning a frozen table then shares every stripe, and the first
//! write to a shared stripe copies only that stripe. Warm device images
//! freeze their tables at capture, so a trial clone pays for the stripes
//! it touches, not for the whole map. Tables that are never frozen (cold
//! devices, sweep ladders) keep plain owned stripes and pay no refcount.

use std::sync::Arc;

use pfault_flash::geometry::Ppa;
use pfault_sim::{DetHashMap, Lba};

/// Logical sectors per mapping-table stripe (64 Ki).
pub(crate) const STRIPE_SECTORS: u64 = 1 << 16;

/// One stripe's `lba → ppa` entries: private until frozen, shared after.
#[derive(Debug, Clone)]
enum Stripe {
    Owned(DetHashMap<Lba, Ppa>),
    Frozen(Arc<DetHashMap<Lba, Ppa>>),
}

impl Default for Stripe {
    fn default() -> Self {
        Stripe::Owned(DetHashMap::default())
    }
}

impl Stripe {
    fn entries(&self) -> &DetHashMap<Lba, Ppa> {
        match self {
            Stripe::Owned(entries) => entries,
            Stripe::Frozen(entries) => entries,
        }
    }

    /// Mutable entries, copying a frozen stripe up into a private one.
    #[inline]
    fn entries_mut(&mut self) -> &mut DetHashMap<Lba, Ppa> {
        if let Stripe::Frozen(shared) = self {
            *self = Stripe::Owned(DetHashMap::clone(shared));
        }
        match self {
            Stripe::Owned(entries) => entries,
            Stripe::Frozen(_) => unreachable!("copied up above"),
        }
    }
}

fn stripe_of(lba: Lba) -> usize {
    (lba.index() / STRIPE_SECTORS) as usize
}

/// Volatile L2P map plus per-block valid-page accounting.
///
/// # Example
///
/// ```
/// use pfault_ftl::mapping::MappingTable;
/// use pfault_flash::geometry::Ppa;
/// use pfault_sim::Lba;
///
/// let mut map = MappingTable::new();
/// map.update(Lba::new(1), Ppa::new(0, 0));
/// map.update(Lba::new(1), Ppa::new(0, 1)); // overwrite invalidates 0/0
/// assert_eq!(map.lookup(Lba::new(1)), Some(Ppa::new(0, 1)));
/// assert_eq!(map.valid_pages_in(0), 1);
///
/// map.freeze();
/// let mut trial = map.clone(); // shares the frozen stripe
/// trial.remove(Lba::new(1)); // copies it up first
/// assert_eq!(map.lookup(Lba::new(1)), Some(Ppa::new(0, 1)));
/// assert!(trial.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MappingTable {
    stripes: Vec<Stripe>,
    valid_per_block: DetHashMap<u64, u64>,
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MappingTable::default()
    }

    /// Current physical location of `lba`, if mapped.
    pub fn lookup(&self, lba: Lba) -> Option<Ppa> {
        self.stripes
            .get(stripe_of(lba))?
            .entries()
            .get(&lba)
            .copied()
    }

    /// Installs `lba → ppa`, returning the previous location (now invalid)
    /// if there was one.
    pub fn update(&mut self, lba: Lba, ppa: Ppa) -> Option<Ppa> {
        let stripe = stripe_of(lba);
        if stripe >= self.stripes.len() {
            self.stripes.resize_with(stripe + 1, Stripe::default);
        }
        let old = self.stripes[stripe].entries_mut().insert(lba, ppa);
        *self.valid_per_block.entry(ppa.block).or_insert(0) += 1;
        if let Some(old_ppa) = old {
            self.decrement(old_ppa.block);
        }
        old
    }

    fn decrement(&mut self, block: u64) {
        if let Some(count) = self.valid_per_block.get_mut(&block) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.valid_per_block.remove(&block);
            }
        }
    }

    /// Removes the mapping for `lba` (TRIM-like), if present. Removing an
    /// unmapped sector leaves a frozen stripe shared.
    pub fn remove(&mut self, lba: Lba) -> Option<Ppa> {
        let stripe = self.stripes.get_mut(stripe_of(lba))?;
        if let Stripe::Frozen(shared) = stripe {
            if !shared.contains_key(&lba) {
                return None;
            }
        }
        let old = stripe.entries_mut().remove(&lba);
        if let Some(ppa) = old {
            self.decrement(ppa.block);
        }
        old
    }

    /// Freezes every non-empty stripe behind an `Arc`: clones of the
    /// table share them, and a later write to one copies just that
    /// stripe. Contents and accounting are unchanged.
    pub fn freeze(&mut self) {
        for stripe in &mut self.stripes {
            match stripe {
                Stripe::Owned(entries) if !entries.is_empty() => {
                    *stripe = Stripe::Frozen(Arc::new(std::mem::take(entries)));
                }
                _ => {}
            }
        }
    }

    /// Number of valid (currently mapped) pages residing in `block`.
    pub fn valid_pages_in(&self, block: u64) -> u64 {
        self.valid_per_block.get(&block).copied().unwrap_or(0)
    }

    /// Total mapped sectors.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.entries().len()).sum()
    }

    /// Whether no sector is mapped.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.entries().is_empty())
    }

    /// Iterates `(lba, ppa)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Lba, Ppa)> + '_ {
        self.stripes
            .iter()
            .flat_map(|stripe| stripe.entries().iter().map(|(&l, &p)| (l, p)))
    }

    /// All LBAs currently mapped into `block` (GC relocation set).
    pub fn lbas_in_block(&self, block: u64) -> Vec<Lba> {
        let mut v: Vec<Lba> = self
            .iter()
            .filter(|(_, p)| p.block == block)
            .map(|(l, _)| l)
            .collect();
        v.sort();
        v
    }

    /// Blocks that hold at least one valid page, with their counts.
    pub fn blocks_with_valid_pages(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.valid_per_block.iter().map(|(&b, &c)| (b, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type Model = BTreeMap<Lba, Ppa>;

    /// Applies one generated op to both the table and its model, checking
    /// the returned previous mapping. Op kinds: 0–5 update, 6–7 remove,
    /// 8 freeze; the page index spans 8 blocks of 16 pages.
    fn apply(table: &mut MappingTable, model: &mut Model, op: (u64, u64, u64, u64)) {
        let (kind, stripe, offset, page) = op;
        let lba = Lba::new(stripe * STRIPE_SECTORS + offset);
        match kind {
            0..=5 => {
                let ppa = Ppa::new(page / 16, page % 16);
                assert_eq!(table.update(lba, ppa), model.insert(lba, ppa));
            }
            6 | 7 => assert_eq!(table.remove(lba), model.remove(&lba)),
            _ => table.freeze(),
        }
    }

    fn assert_matches(table: &MappingTable, model: &Model) {
        let mut contents: Vec<_> = table.iter().collect();
        contents.sort();
        let expected: Vec<_> = model.iter().map(|(&l, &p)| (l, p)).collect();
        assert_eq!(contents, expected);
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        for (&lba, &ppa) in model {
            assert_eq!(table.lookup(lba), Some(ppa));
        }
        let mut per_block: BTreeMap<u64, u64> = BTreeMap::new();
        for ppa in model.values() {
            *per_block.entry(ppa.block).or_insert(0) += 1;
        }
        let mut counted: Vec<_> = table.blocks_with_valid_pages().collect();
        counted.sort();
        assert_eq!(
            counted,
            per_block.iter().map(|(&b, &c)| (b, c)).collect::<Vec<_>>()
        );
        for block in 0..8 {
            assert_eq!(
                table.valid_pages_in(block),
                per_block.get(&block).copied().unwrap_or(0)
            );
            let in_block: Vec<Lba> = model
                .iter()
                .filter(|(_, p)| p.block == block)
                .map(|(&l, _)| l)
                .collect();
            assert_eq!(table.lbas_in_block(block), in_block);
        }
    }

    fn op_strategy() -> impl Strategy<Value = (u64, u64, u64, u64)> {
        (0u64..9, 0u64..4, 0u64..48, 0u64..128)
    }

    proptest! {
        #[test]
        fn table_matches_btreemap_model_across_clones(
            prefix in prop::collection::vec(op_strategy(), 0..120),
            parent_ops in prop::collection::vec(op_strategy(), 0..80),
            child_ops in prop::collection::vec(op_strategy(), 0..80),
        ) {
            let mut table = MappingTable::new();
            let mut model = Model::new();
            for op in prefix {
                apply(&mut table, &mut model, op);
            }
            assert_matches(&table, &model);

            // Clone, then let parent and child diverge in turn: neither
            // may see the other's writes, frozen stripes or not.
            let mut child = table.clone();
            let mut child_model = model.clone();
            for op in child_ops {
                apply(&mut child, &mut child_model, op);
            }
            assert_matches(&table, &model);
            for op in parent_ops {
                apply(&mut table, &mut model, op);
            }
            assert_matches(&child, &child_model);
            assert_matches(&table, &model);
        }
    }

    #[test]
    fn writes_to_a_clone_leave_the_frozen_original_intact() {
        let mut frozen = MappingTable::new();
        for i in 0..40 {
            frozen.update(Lba::new(i * 7919), Ppa::new(i % 5, i));
        }
        frozen.freeze();
        let before: Vec<_> = frozen.iter().collect();
        let stripes = frozen.stripes.len();
        assert!(stripes > 1, "the fixture must span several stripes");

        let mut clone = frozen.clone();
        clone.update(Lba::new(0), Ppa::new(9, 9));
        clone.remove(Lba::new(7919));
        clone.update(
            Lba::new(stripes as u64 * STRIPE_SECTORS + 3),
            Ppa::new(9, 10),
        );

        assert_eq!(frozen.iter().collect::<Vec<_>>(), before);
        assert_eq!(frozen.lookup(Lba::new(0)), Some(Ppa::new(0, 0)));
        assert_eq!(frozen.valid_pages_in(9), 0);
        assert_eq!(frozen.len(), 40);
        assert_eq!(clone.len(), 40);
        assert_eq!(clone.valid_pages_in(9), 2);

        // Only the written stripe was copied; the rest are still shared.
        let shared = |s: usize| match (&frozen.stripes[s], &clone.stripes[s]) {
            (Stripe::Frozen(a), Stripe::Frozen(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        assert!(!shared(0), "stripe 0 was written");
        assert!((1..stripes)
            .filter(|&s| !frozen.stripes[s].entries().is_empty())
            .all(shared));
        assert_eq!(
            clone.stripes.len(),
            stripes + 1,
            "grows to the highest stripe written"
        );
    }

    #[test]
    fn removing_an_unmapped_sector_keeps_the_stripe_shared() {
        let mut frozen = MappingTable::new();
        frozen.update(Lba::new(1), Ppa::new(0, 0));
        frozen.freeze();
        let mut clone = frozen.clone();
        assert_eq!(clone.remove(Lba::new(2)), None);
        assert_eq!(clone.remove(Lba::new(5 * STRIPE_SECTORS)), None);
        assert!(matches!(clone.stripes[0], Stripe::Frozen(_)));
        assert_eq!(clone.stripes.len(), 1);
    }

    #[test]
    fn update_and_lookup() {
        let mut m = MappingTable::new();
        assert_eq!(m.lookup(Lba::new(1)), None);
        assert_eq!(m.update(Lba::new(1), Ppa::new(2, 3)), None);
        assert_eq!(m.lookup(Lba::new(1)), Some(Ppa::new(2, 3)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn overwrite_returns_and_invalidates_old() {
        let mut m = MappingTable::new();
        m.update(Lba::new(1), Ppa::new(0, 0));
        let old = m.update(Lba::new(1), Ppa::new(1, 0));
        assert_eq!(old, Some(Ppa::new(0, 0)));
        assert_eq!(m.valid_pages_in(0), 0);
        assert_eq!(m.valid_pages_in(1), 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_clears_accounting() {
        let mut m = MappingTable::new();
        m.update(Lba::new(9), Ppa::new(4, 0));
        assert_eq!(m.remove(Lba::new(9)), Some(Ppa::new(4, 0)));
        assert_eq!(m.valid_pages_in(4), 0);
        assert!(m.is_empty());
        assert_eq!(m.remove(Lba::new(9)), None);
    }

    #[test]
    fn lbas_in_block_is_sorted_and_filtered() {
        let mut m = MappingTable::new();
        m.update(Lba::new(5), Ppa::new(7, 0));
        m.update(Lba::new(2), Ppa::new(7, 1));
        m.update(Lba::new(3), Ppa::new(8, 0));
        assert_eq!(m.lbas_in_block(7), vec![Lba::new(2), Lba::new(5)]);
        assert_eq!(m.lbas_in_block(9), Vec::<Lba>::new());
    }

    #[test]
    fn valid_counts_track_multiple_blocks() {
        let mut m = MappingTable::new();
        for i in 0..10 {
            m.update(Lba::new(i), Ppa::new(i % 2, i));
        }
        assert_eq!(m.valid_pages_in(0), 5);
        assert_eq!(m.valid_pages_in(1), 5);
        let total: u64 = m.blocks_with_valid_pages().map(|(_, c)| c).sum();
        assert_eq!(total, 10);
    }
}
